"""Boundary-control synthesis and verification for dispersive PDEs.

Steers the 1-D Schrodinger equation (and, through its real part, the
hinged Euler-Bernoulli beam) from an arbitrary initial state to rest in
finite time using an explicit two-phase boundary control, then certifies
the result by simulating the controlled equation.
"""
from .gevrey import step_jet
from .kernel import KernelError, odd_kernel
from .quadrature import QuadratureError
from .smoothing import ControlTrace, PiecewiseProfile, boundary_trace, flat_coefficients
from .flatness import FlatOutput, control_trace, flat_output_derivatives, synthesize
from .schrodinger_sim import FieldSnapshot, SimConfig, simulate, terminal_report
from .beam import (BeamData, beam_controls, beam_simulate, beam_terminal_report,
                   extend_odd_smooth, lift_initial_data)

__version__ = "0.1.0"

__all__ = [
    "step_jet", "KernelError", "odd_kernel", "QuadratureError",
    "ControlTrace", "PiecewiseProfile", "boundary_trace",
    "flat_coefficients", "FlatOutput", "control_trace",
    "flat_output_derivatives", "synthesize", "FieldSnapshot", "SimConfig",
    "simulate", "terminal_report",
    "BeamData", "beam_controls", "beam_simulate", "beam_terminal_report",
    "extend_odd_smooth", "lift_initial_data", "__version__",
]

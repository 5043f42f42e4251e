"""Crank-Nicolson solver: conservation, convergence order, grid bookkeeping."""
import numpy as np
import pytest

from schroflat import SimConfig, schrodinger_sim, simulate, terminal_report
from schroflat.schrodinger_sim import MAX_FRAME_CELLS, MAX_NT, MAX_NX, grid_l2_norm
from schroflat.cli import sine_profile


def test_config_validation():
    with pytest.raises(ValueError):
        SimConfig(Nx=8, Nt=100, T=0.5)
    with pytest.raises(ValueError):
        SimConfig(Nx=100, Nt=8, T=0.5)
    with pytest.raises(ValueError):
        SimConfig(Nx=64, Nt=64, T=-1.0)
    for T in (float("nan"), float("inf")):
        with pytest.raises(ValueError):
            SimConfig(Nx=64, Nt=64, T=T)
    with pytest.raises(ValueError):
        SimConfig(Nx=64, Nt=64, T=0.5, snapshot_count=1)


@pytest.mark.parametrize("field, value", [
    ("Nx", 32.5), ("Nx", 32.0), ("Nx", True), ("Nx", "32"),
    ("Nt", 40.7), ("Nt", np.float64(64.0)),
    ("snapshot_count", 3.5), ("snapshot_count", True),
])
def test_config_rejects_sizes_that_are_not_integers(field, value):
    # checked by type, also where the value would pass the range check
    sizes = {"Nx": 32, "Nt": 64, "snapshot_count": 3, field: value}
    with pytest.raises(ValueError, match=rf"^{field}: need an integer, got "):
        SimConfig(T=0.5, **sizes)


@pytest.mark.parametrize("T", [True, "0.5", None, 0.5 + 0j])
def test_config_rejects_a_final_time_that_is_not_real(T):
    # True would otherwise pass as 1.0, and a string fail in a comparison
    with pytest.raises(ValueError, match=r"^T: need a real number, got "):
        SimConfig(Nx=16, Nt=16, T=T)


def test_config_takes_a_numpy_final_time():
    assert SimConfig(Nx=16, Nt=16, T=np.float64(1.0)).dt == 0.0625


def test_config_takes_numpy_integers_as_python_ints():
    # kept as Python ints, whose sums cannot wrap: a uint8 Nt = 255 plus 1
    # would be 0
    cfg = SimConfig(Nx=np.int64(32), Nt=np.uint8(255), T=0.5, snapshot_count=np.int32(3))
    assert cfg == SimConfig(Nx=32, Nt=255, T=0.5, snapshot_count=3)
    assert all(type(v) is int for v in (cfg.Nx, cfg.Nt, cfg.snapshot_count))
    assert cfg.times().size == 256


def test_config_bounds_the_grid():
    # the ceiling is checked, not allocated: a config holds no table
    assert SimConfig(Nx=MAX_NX, Nt=16, T=0.5).Nx == MAX_NX
    with pytest.raises(ValueError, match=r"^Nx: need 16 <= Nx <= 8192, got 8193$"):
        SimConfig(Nx=MAX_NX + 1, Nt=16, T=0.5)
    assert MAX_NX >= 200 * 2 ** 4     # a 5-level study of the builtin grids


def test_config_bounds_the_time_grid():
    # checked, not allocated: a config holds no time grid
    assert SimConfig(Nx=16, Nt=MAX_NT, T=0.5).Nt == MAX_NT
    with pytest.raises(ValueError, match=r"^Nt: need 16 <= Nt <= 1048576, got 1048577$"):
        SimConfig(Nx=16, Nt=MAX_NT + 1, T=0.5)
    assert MAX_NT >= 4000 * 2 ** 4     # a 5-level study of the builtin time grids


def test_config_grids():
    cfg = SimConfig(Nx=100, Nt=400, T=0.5, snapshot_count=5)
    assert cfg.dx == 0.01
    assert cfg.dt == 0.00125
    times = cfg.times()
    assert times[0] == 0.0 and times[-1] == 0.5 and times.size == 401
    idx = cfg.snapshot_indices()
    assert idx[0] == 0 and idx[-1] == 400


def test_config_bounds_the_snapshots():
    # at most one snapshot per time level, and at most MAX_FRAME_CELLS
    # frame cells (1,985 frames of 2,113 cells are MAX_FRAME_CELLS + 1),
    # checked before any frame is allocated
    assert SimConfig(Nx=16, Nt=16, T=0.5, snapshot_count=17).snapshot_count == 17
    with pytest.raises(ValueError,
                       match=r"^snapshot_count: need 2 <= snapshot_count <= Nt \+ 1 = 17, got 18$"):
        SimConfig(Nx=16, Nt=16, T=0.5, snapshot_count=18)
    assert 1984 * 2113 <= MAX_FRAME_CELLS < 1985 * 2113
    assert SimConfig(Nx=2112, Nt=4096, T=0.5, snapshot_count=1984).snapshot_count == 1984
    with pytest.raises(ValueError, match=r"^snapshot_count: need snapshot_count \* \(Nx \+ 1\) "
                                         r"<= 4194304, got 1985 \* 2113$"):
        SimConfig(Nx=2112, Nt=4096, T=0.5, snapshot_count=1985)
    # so MAX_NX and MAX_NT together keep at most MAX_FRAME_CELLS cells
    with pytest.raises(ValueError, match=r"^snapshot_count: "):
        SimConfig(Nx=MAX_NX, Nt=MAX_NT, T=0.5, snapshot_count=MAX_NT + 1)


@pytest.mark.parametrize("Nt, snapshot_count", [
    (400, 5), (4000, 11), (1024, 9), (17, 3), (16, 16), (16, 17), (20000, 2)])
def test_snapshot_indices_match_unique(Nt, snapshot_count):
    # with at most one snapshot per time level no two round onto one step,
    # so the rounded indices are np.unique's
    cfg = SimConfig(Nx=16, Nt=Nt, T=0.5, snapshot_count=snapshot_count)
    idx = cfg.snapshot_indices()
    want = np.unique(np.round(np.linspace(0, Nt, snapshot_count)).astype(np.int64))
    assert idx.dtype == want.dtype
    assert np.array_equal(idx, want)


def test_snapshot_indices_strictly_increase():
    # every snapshot count a config takes, on every time grid up to Nt = 300
    for Nt in range(16, 301):
        for count in range(2, Nt + 2):
            idx = SimConfig(Nx=16, Nt=Nt, T=0.5, snapshot_count=count).snapshot_indices()
            assert idx[0] == 0 and idx[-1] == Nt and idx.size == count, (Nt, count)
            assert np.all(idx[1:] > idx[:-1]), (Nt, count)


def test_zero_datum_stays_zero():
    cfg = SimConfig(Nx=32, Nt=32, T=0.5, snapshot_count=3)
    snaps = simulate(lambda x: np.zeros_like(x, dtype=np.complex128), None, cfg)
    assert all(s.l2_norm == 0.0 for s in snaps)


def test_unitarity_without_control():
    # trapezoidal step is exactly norm-preserving for the skew-Hermitian
    # system; drift beyond rounding indicates a scheme defect
    cfg = SimConfig(Nx=128, Nt=1024, T=0.5, snapshot_count=9)
    snaps = simulate(sine_profile(), None, cfg)
    norms = np.array([s.l2_norm for s in snaps])
    assert np.max(np.abs(norms - norms[0])) / norms[0] < 1e-12


def test_eigenmode_second_order_convergence():
    # exact solution e^{-i pi^2 t} sin(pi x); both dt and dx halve together
    errors = []
    for lvl in range(3):
        cfg = SimConfig(Nx=32 * 2 ** lvl, Nt=128 * 2 ** lvl, T=0.25,
                        snapshot_count=3)
        snaps = simulate(sine_profile(), None, cfg)
        last = snaps[-1]
        exact = np.exp(-1j * np.pi ** 2 * last.t) * np.sin(np.pi * last.grid)
        errors.append(np.max(np.abs(last.values - exact)))
    rates = [np.log2(a / b) for a, b in zip(errors, errors[1:])]
    assert all(abs(r - 2.0) < 0.2 for r in rates)


def test_snapshots_cover_interval():
    cfg = SimConfig(Nx=32, Nt=64, T=0.5, snapshot_count=5)
    snaps = simulate(sine_profile(), None, cfg)
    assert snaps[0].t == 0.0
    assert snaps[-1].t == 0.5
    assert all(b.t > a.t for a, b in zip(snaps, snaps[1:]))
    # marched frames clamp the Dirichlet end; frame 0 is the raw datum
    assert all(s.values[0] == 0.0 for s in snaps[1:])
    assert abs(snaps[0].values[0]) < 1e-12


def test_dirichlet_control_enters_boundary():
    cfg = SimConfig(Nx=32, Nt=64, T=0.5, snapshot_count=3)
    ub = np.full(cfg.Nt + 1, 0.3 + 0.1j)
    snaps = simulate(lambda x: np.zeros_like(x, dtype=np.complex128), ub, cfg)
    assert snaps[-1].values[-1] == 0.3 + 0.1j
    assert snaps[-1].l2_norm > 0.0  # mass flowed in through the boundary


def test_boundary_values_shape_checked(monkeypatch):
    # one sample per time level, Nt + 1 of them, checked before any march
    def no_march(*args):
        raise AssertionError("marched misshapen boundary data")

    monkeypatch.setattr(schrodinger_sim, "_march", no_march)
    cfg = SimConfig(Nx=32, Nt=64, T=0.5, snapshot_count=3)
    good = np.zeros(cfg.Nt + 1, dtype=np.complex128)
    for ub in (good[:-1], np.append(good, 0.0), good[None, :]):
        with pytest.raises(ValueError):
            simulate(sine_profile(), ub, cfg)


def test_grid_l2_norm_trapezoid():
    x = np.linspace(0.0, 1.0, 2001)
    vals = np.sin(np.pi * x) + 0j
    # trapezoid of sin^2 over [0,1] approaches 1/2
    assert abs(grid_l2_norm(vals, x[1] - x[0]) - np.sqrt(0.5)) < 1e-6


def test_terminal_report_fields():
    cfg = SimConfig(Nx=32, Nt=32, T=0.5, snapshot_count=3)
    snaps = simulate(sine_profile(), None, cfg)
    rep = terminal_report(snaps)
    assert rep["initial_l2"] > 0
    assert rep["relative"] == rep["terminal_l2"] / rep["initial_l2"]
    assert set(rep) == {"initial_l2", "terminal_l2", "relative"}
    with pytest.raises(ValueError):
        terminal_report([])


def test_initial_profile_shape_checked():
    cfg = SimConfig(Nx=32, Nt=32, T=0.5)
    with pytest.raises(ValueError):
        simulate(lambda x: np.zeros(3, dtype=np.complex128), None, cfg)

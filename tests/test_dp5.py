"""The straight-line DP5(4) step against the tableau loop it replaced (kept
in legacy_dp5 as a test-only reference): steps, whole trajectories and
the CLI's integrate output must agree bit for bit.
"""

import itertools
import math
import struct
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chermnykh import cli
from chermnykh.dynamics import _dp_step, _rhs, integrate
from chermnykh.errors import DomainError, IntegrationError, SingularPointError
from chermnykh.model import RotState, SystemParams, jacobi_constant

from conftest import CLASSICAL
from legacy_dp5 import legacy_dp_step, legacy_integrate, legacy_jnum

# The benchmark's seed-2 orbits round: nine displacements from L4, two
# near-circular orbits about the bigger primary.
SEED2_ORBITS = (
    "0.010606 0.917744 0.002306 0.005579 0.4617031842 0.8444843203 0.0 0.0 300.0",
    "0.003948 0.917672 0.001736 0.021125 0.4691471089 0.8333610401 0.0 0.0 300.0",
    "0.006835 0.951017 0.003597 0.0319 0.4766255633 0.8320620117 0.0 0.0 300.0",
    "0.009308 0.951374 0.005599 0.037378 0.4734068832 0.8280859896 0.0 0.0 300.0",
    "0.00867 0.999518 0.004456 0.054798 0.4899658488 0.8255782177 0.0 0.0 300.0",
    "0.007736 0.941467 0.005254 0.065642 0.472522948 0.8088127282 0.0 0.0 300.0",
    "0.005085 0.990848 0.003643 0.071373 0.4913113374 0.8139625626 0.0 0.0 300.0",
    "0.004057 0.959349 0.003619 0.087601 0.4828646668 0.799503913 0.0 0.0 300.0",
    "0.002956 0.985897 0.004458 0.090717 0.4916111037 0.8018809815 0.0 0.0 300.0",
    "0.010594 0.939986 0.007386 0.065491 -0.0405968242 0.1622472513 -2.1556809511 "
    "-0.3986293522 5.0",
    "0.006483 0.951539 0.007962 0.066169 0.1486850733 -0.1080713183 1.1585901125 "
    "1.6634959054 5.0",
)


def _bits(values):
    return tuple(struct.pack("<d", v) for v in values)


def _quiet_params(mu, q1, a2, mb, t_belt):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # q1 = 0 warns
        return SystemParams(mu=mu, q1=q1, a2=a2, mb=mb, t_belt=t_belt)


# The documented box: mu in (0, 1/2], q1 in [0, 1], A2 in [0, 0.1],
# M_b in [0, 1.5], T in [1e-3, 0.5].
box = st.builds(
    _quiet_params,
    mu=st.floats(0.0, 0.5, exclude_min=True),
    q1=st.floats(0.0, 1.0),
    a2=st.floats(0.0, 0.1),
    mb=st.floats(0.0, 1.5),
    t_belt=st.floats(1e-3, 0.5),
)
# components of either sign, with zeros of both signs and subnormals drawn often
component = st.one_of(st.sampled_from((0.0, -0.0, 5e-324, -5e-324)), st.floats(-2.0, 2.0))
step = st.floats(1e-6, 1e-1)


def _outcome(step_fn, p, s, h, k1):
    """(s_new, k7, err) as bit patterns, or the error a stage raised."""
    try:
        s_new, k7, err = step_fn(p, s, h, k1)
    except SingularPointError as exc:
        return type(exc), str(exc)
    return _bits(s_new), _bits(k7), _bits(err)


@settings(max_examples=300)
@given(p=box, s=st.tuples(component, component, component, component), h=step)
def test_step_matches_the_tableau_loop(p, s, h):
    try:
        k1 = _rhs(p, s)
    except SingularPointError:
        return
    assert _outcome(_dp_step, p, s, h, k1) == _outcome(legacy_dp_step, p, s, h, k1)


@settings(max_examples=100)
@given(
    p=box,
    smaller=st.booleans(),
    v=st.tuples(st.floats(0.1, 2.0), st.floats(-2.0, 2.0)),
    h=step,
)
def test_stage_on_a_primary_raises_the_same_error(p, smaller, v, h):
    # the start sits so that stage 2, at s + h k1 / 5, lands on the primary
    px = 1.0 - p.mu if smaller else -p.mu
    vx, vy = v
    s = (px - h * (1 / 5 * vx), -h * (1 / 5 * vy), vx, vy)
    k1 = _rhs(p, s)
    new = _outcome(_dp_step, p, s, h, k1)
    assert new == _outcome(legacy_dp_step, p, s, h, k1)
    assert new[0] is SingularPointError


def test_zero_and_subnormal_components_match():
    # the new sums leave out sum()'s leading 0, which could only matter for
    # a sum of zeros: starts built from zeros of both signs and subnormals,
    # also at mu = 1/2's origin, where the gradient is exactly (+0, +0)
    tiny = (0.0, -0.0, 5e-324, -5e-324, 0.3)
    for p in (CLASSICAL, SystemParams(mu=0.5), SystemParams(mu=0.5, mb=0.3)):
        for s in itertools.product(tiny, repeat=4):
            k1 = _rhs(p, s)
            for h in (1e-3, 0.1):
                assert _outcome(_dp_step, p, s, h, k1) == _outcome(legacy_dp_step, p, s, h, k1)


def _same_trajectory(args, kwargs=None):
    kwargs = kwargs or {}
    new = integrate(*args, **kwargs)
    old = legacy_integrate(*args, **kwargs)
    assert new == old
    assert repr(new) == repr(old)  # also tells -0.0 from 0.0
    return new


def test_l4_trajectory_matches():
    traj = _same_trajectory((CLASSICAL, (0.475 + 1e-3, math.sqrt(3.0) / 2.0, 0.0, 0.005), 20.0),
                            {"tol": 1e-12})
    assert traj.status == "completed" and traj.n_accepted > 100


def test_near_primary_trajectory_matches():
    p = SystemParams(mu=0.010594, q1=0.939986, a2=0.007386, mb=0.065491)
    traj = _same_trajectory((p, (-0.0405968242, 0.1622472513, -2.1556809511, -0.3986293522), 5.0))
    assert traj.status == "completed" and traj.n_accepted > 1000


def test_close_encounter_trajectory_matches():
    p = CLASSICAL
    traj = _same_trajectory((p, (1 - p.mu + 1e-9, 0.0, -1e-3, 0.0), 1.0))
    assert traj.status == "close-encounter"
    traj = _same_trajectory((p, (1 - p.mu + 1e-4, 0.0, 0.0, 0.0), 5.0), {"sample_times": [4.0, 5.0]})
    assert traj.status == "close-encounter" and traj.samples == ()


def test_sample_times_trajectory_matches():
    # a loose tolerance, so the controller also rejects steps
    times = [0.0, 0.35, 1.0, 2.718, 6.5, 10.0]
    traj = _same_trajectory((CLASSICAL, (0.5, 0.5, 0.01, -0.02), 10.0),
                            {"tol": 1e-6, "sample_times": times})
    assert [s.t for s in traj.samples] == times
    assert traj.n_rejected > 0


def test_runaway_raises_the_same_error():
    errors = []
    for fn in (integrate, legacy_integrate):
        with pytest.raises(IntegrationError) as exc:
            fn(CLASSICAL, (1e153, 0.0, 0.0, 0.0), 2000.0)
        errors.append(exc.value)
    new, old = errors
    assert str(new) == str(old)
    assert new.last_state == old.last_state and new.last_time == old.last_time


@pytest.mark.parametrize("s0, message", [
    ((0.5, 0.5, 0.0, 1.3e154), "state left the representable range"),  # in the Jacobi check
])
def test_failed_steps_raise_the_same_error(s0, message):
    errors = []
    for fn in (integrate, legacy_integrate):
        with pytest.raises(IntegrationError, match=message) as exc:
            fn(CLASSICAL, s0, 2000.0)
        errors.append(exc.value)
    new, old = errors
    assert str(new) == str(old)
    assert new.last_state == old.last_state and new.last_time == old.last_time


@pytest.mark.parametrize("s0", [(1.7e308, 0.0, 0.0, 0.0), (0.5, 0.5, 1e154, 1e154)])
def test_start_with_a_non_finite_jacobi_constant_is_a_domain_error(s0):
    # C0 rounds to +inf and to -inf without an OverflowError; the legacy
    # integrator ran both and failed as a numerical error
    with pytest.raises(DomainError, match=r"initial state .* gives a non-finite Jacobi constant"):
        integrate(CLASSICAL, s0, 2000.0)


@pytest.mark.parametrize("p, s0, t_end", [
    (CLASSICAL, (0.475 + 1e-3, math.sqrt(3.0) / 2.0, 0.0, 0.005), 20.0),
    (SystemParams(mu=0.010594, q1=0.939986, a2=0.007386, mb=0.065491),
     (-0.0405968242, 0.1622472513, -2.1556809511, -0.3986293522), 5.0),
])
def test_step_bookkeeping(p, s0, t_end):
    traj = integrate(p, s0, t_end)
    # every sample is the RotState its components validate to
    assert all(type(s) is RotState and s == RotState(s.x, s.y, s.vx, s.vy, s.t)
               for s in traj.samples)
    # max_drift is jacobi_constant's, bit for bit
    drifts = [abs(jacobi_constant(p, s) - traj.c0) / abs(traj.c0) for s in traj.samples]
    assert _bits([traj.max_drift]) == _bits([max(drifts)]) and traj.max_drift > 0.0
    # the Hermite samples between the accepted steps
    mids = [0.5 * (a.t + b.t) for a, b in zip(traj.samples, traj.samples[1:])]
    dense = _same_trajectory((p, s0, t_end), {"sample_times": mids})
    assert len(dense.samples) == len(mids)
    assert dense.max_drift == traj.max_drift


def test_cli_json_equals_the_legacy_path(tmp_path, monkeypatch):
    flags = ("--mu", "--q1", "--a2", "--mb", "--x0", "--y0", "--vx0", "--vy0", "--tend")
    for k, line in enumerate(SEED2_ORBITS):
        argv = ["integrate", "--t", "0.01", "--format", "json"]
        for flag, value in zip(flags, line.split()):
            argv += [flag, value]
        new, old = tmp_path / f"new{k}.json", tmp_path / f"old{k}.json"
        assert cli.main([*argv, "--out", str(new)]) == cli.EXIT_OK
        with monkeypatch.context() as m:
            m.setattr(cli, "integrate", legacy_integrate)
            m.setattr(cli, "_jnum", legacy_jnum)
            assert cli.main([*argv, "--out", str(old)]) == cli.EXIT_OK
        assert new.read_bytes() == old.read_bytes()
        assert b'"status": "completed"' in new.read_bytes()


def test_emit_json_cells_match_the_legacy_rounding(monkeypatch):
    row = [
        math.nan, -0.0, 0.0, 5e-324, 2.2250738585072014e-308, 1 / 3, -1e300, math.inf,
        7, 2**70, True, False, np.float64(0.1 + 0.2), np.float64(math.nan), np.int64(-3),
        "label", None,
    ]
    new = cli.emit_json(("c",) * len(row), [row], {"c0": cli._jnum(-0.0)})
    monkeypatch.setattr(cli, "_jnum", legacy_jnum)
    old = cli.emit_json(("c",) * len(row), [row], {"c0": cli._jnum(-0.0)})
    assert new == old
    assert "null" in new and "-0.0" in new and "5e-324" in new

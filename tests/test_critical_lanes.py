"""The lane form of critical_mass_exact and the lane-safe order-2 kernel,
held bit for bit to the scalar forms: table2's 120 searches, whole-box
draws with the scalar path's errors, and lanes that do not depend on the
block they run in."""

import math
import random
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chermnykh import cli, equilibria, stability
from chermnykh import reference_data as rd
from chermnykh.errors import DomainError, NoResonanceError, NumericalError
from chermnykh.model import LaneParams, SystemParams, kernel
from chermnykh.stability import critical_mass_exact

TABLE2 = [(q1, k, a2, mb) for q1 in rd.MASS_Q1_VALUES for k in rd.RESONANCE_ORDERS
          for a2, mb in rd.MASS_COLUMNS]


def _params(rows):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # q1 <= 0 warns
        return [SystemParams(**row) for row in rows]


def _scalar(p, k):
    """The scalar form's float as hex, or its error as (type, message)."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # its stages warn again for q1 <= 0
        try:
            return critical_mass_exact(p, k).hex()
        except (DomainError, NumericalError) as exc:
            return type(exc), str(exc)


def _outcome(r):
    """A lane's result in _scalar's form."""
    return r.hex() if isinstance(r, float) else (type(r), str(r))


def _same(ps, ks, results):
    for p, k, r in zip(ps, ks, results):
        assert _outcome(r) == _scalar(p, k), (p, k)


TABLE2_BASES = _params([dict(mu=0.025, q1=q1, a2=a2, mb=mb) for q1, _, a2, mb in TABLE2])
TABLE2_KS = [k for _, k, _, _ in TABLE2]


def test_table2_lanes_are_the_scalar_searches_bit_for_bit():
    results = critical_mass_exact(TABLE2_BASES, TABLE2_KS)
    assert len(results) == 120
    _same(TABLE2_BASES, TABLE2_KS, results)
    assert all(isinstance(r, float) for r in results)


def test_table2_makes_one_lane_call_through_cli(monkeypatch):
    calls = []

    def counted(bases, ks):
        calls.append(len(bases))
        return critical_mass_exact(bases, ks)

    monkeypatch.setattr(cli, "critical_mass_exact", counted)
    monkeypatch.setattr(stability, "find_triangular", None)  # the lanes need no scalar solve
    cli.reproduce_tables("table2")
    assert calls == [120]


# The whole box: q1 <= 0 included, M_b up to 5, T log-uniform down to 1e-100
# and T = 0, r_c in [0.2, 1.5], k in 1..6.
lane = st.tuples(
    st.fixed_dictionaries({
        "mu": st.floats(0.0, 0.5, exclude_min=True),
        "q1": st.floats(-0.5, 1.0) | st.just(1.0),
        "a2": st.floats(0.0, 0.1),
        "mb": st.just(0.0) | st.floats(0.0, 5.0),
        "t_belt": st.floats(-100.0, math.log10(0.5)).map(lambda e: 10.0**e) | st.just(0.0),
        "rc": st.floats(0.2, 1.5),
    }),
    st.integers(1, 6),
)


@settings(max_examples=40)
@given(st.lists(lane, min_size=1, max_size=6))
def test_box_lanes_are_the_scalar_searches(draws):
    ps = _params([row for row, _ in draws])
    ks = [k for _, k in draws]
    results = critical_mass_exact(ps, ks)
    _same(ps, ks, results)
    for k, r in zip(ks, results):
        if isinstance(r, NoResonanceError):
            assert f"k = {k}:" in str(r)


def test_bad_orders_and_q1_fail_only_their_lanes():
    base = SystemParams(mu=0.025, q1=0.75, mb=0.2)
    ps = [base, base, _params([dict(q1=-0.1)])[0], base]
    ks = [0, 1, 2, 1.5]
    results = critical_mass_exact(ps, ks)
    assert isinstance(results[0], DomainError) and "k must be an integer" in str(results[0])
    assert results[1] == critical_mass_exact(base, 1)
    assert str(results[2]) == "triangular points degenerate for q1 <= 0 (r1 -> 0)"
    assert isinstance(results[3], DomainError)
    assert critical_mass_exact([], []) == []
    with pytest.raises(DomainError, match="2 parameter sets but 1 orders"):
        critical_mass_exact([base, base], [1])


def test_triangular_lanes_are_find_triangular_at_each_stage_mu():
    # a stage mu outside (0, 1/2] fails its lane as SystemParams would
    base = SystemParams(mu=0.025, q1=0.75, a2=0.02, mb=0.4)
    mus = [0.6, 0.02, 0.0, 0.3]
    q = LaneParams(*map(np.atleast_1d, LaneParams.of([base] * 4)))._replace(mu=np.array(mus))
    out = equilibria._triangular_lanes(q, [base] * 4, {})
    for mu, got in zip(mus, out):
        try:
            want = equilibria.find_triangular(SystemParams(mu=mu, q1=0.75, a2=0.02, mb=0.4))[0]
        except DomainError as exc:
            assert (type(got), str(got)) == (type(exc), str(exc))
        else:
            assert got == want


def test_a_lane_does_not_depend_on_its_block():
    # numpy's power or cube root on a batch would round some lanes
    # otherwise, by their place and the batch's length
    rng = random.Random(7)
    extra = _params([dict(q1=rng.uniform(0.3, 1.0), a2=rng.uniform(0.0, 0.1), mb=rng.uniform(0.0, 1.0),
                          t_belt=10.0 ** rng.uniform(-4.0, -0.5)) for _ in range(37)])
    ps = TABLE2_BASES + extra
    ks = TABLE2_KS + [rng.randint(1, 5) for _ in extra]
    ref = [_scalar(p, k) for p, k in zip(ps, ks)]
    order = list(range(len(ps)))
    rng.shuffle(order)
    for block in (order, order[::-1], order[:61], order[61:] + order[:5]):
        got = critical_mass_exact([ps[i] for i in block], [ks[i] for i in block])
        assert [_outcome(r) for r in got] == [ref[i] for i in block]


# Lanes without a belt (neutral t2 = 1), with T in (1e-50, 0.5] and with T
# in [1e-100, 1e-50], where the order-2 belt terms take 1/w last.
kernel_lane = st.tuples(
    st.floats(0.001, 0.5),
    st.floats(0.1, 1.0),
    st.floats(0.0, 0.1),
    st.floats(0.01, 5.0),
    st.just(None) | st.floats(-50.0, math.log10(0.5), exclude_min=True) | st.floats(-100.0, -50.0),
    st.floats(-2.0, 2.0),
    st.floats(0.05, 2.0),
)


@settings(max_examples=60)
@given(st.lists(kernel_lane, min_size=1, max_size=10))
def test_lane_gradient_and_hessian_are_the_float_kernels(draws):
    ps = [SystemParams(mu=mu, q1=q1, a2=a2, mb=0.0 if e is None else mb,
                       t_belt=0.01 if e is None else 10.0**e) for mu, q1, a2, mb, e, _, _ in draws]
    x = np.array([d[5] for d in draws])
    y = np.array([d[6] for d in draws])
    q = LaneParams(*map(np.atleast_1d, LaneParams.of(ps)))
    (gx, gy), (oxx, oxy, oyy) = kernel(q, x, y, 2)
    for i, p in enumerate(ps):
        (wx, wy), want = kernel(p, float(x[i]), float(y[i]), 2)
        got = (gx[i], gy[i], oxx[i], oxy[i], oyy[i])
        assert [float(v).hex() for v in got] == [v.hex() for v in (wx, wy, *want)]


def test_find_triangular_makes_one_guarded_evaluation(monkeypatch):
    p = SystemParams(mu=0.02, q1=0.8, a2=0.01, mb=0.3, t_belt=0.05)
    want = equilibria.find_triangular(p)
    calls = []
    check = equilibria.check_regular
    monkeypatch.setattr(equilibria, "check_regular", lambda *a: calls.append(a) or check(*a))
    for name in ("omega_grad", "omega_hessian"):
        monkeypatch.setattr(equilibria, name, None)
    assert equilibria.find_triangular(p) == want
    assert calls == [(p, want[0].x, want[0].y)]


def test_benchmark_trace_bindings_exist():
    # bench/layers.py wraps these names by lookup in each module that binds
    # them; were one gone, its traced run would raise AttributeError
    for name in ("find_all", "classify", "triangular_frequencies", "critical_mass_exact",
                 "integrate", "zvc_contours", "config_from_argv", "emit_csv", "emit_json"):
        assert callable(getattr(cli, name)), name
    assert callable(stability.find_triangular)
    assert callable(equilibria.scan_collinear) and callable(equilibria.collinear_f)

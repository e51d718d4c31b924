import math
from bisect import bisect_right

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from loewner import (Constant, DomainError, FromCallable, Lind, Sampled, Scaled, Sqrt,
                     load_sampled_csv, parse_term, write_sampled_csv)
from loewner.disk import evolve_disk_boundary, evolve_disk_interior
from loewner.halfplane import evolve_boundary, evolve_interior, singular_plus
from loewner.tangent import TangentTerm
from loewner.trace import extract_trace


def test_constant_eval():
    assert Constant(0.0).value(0.7) == 0.0
    assert Constant(2.5).value(0.0) == 2.5


def test_sqrt_eval():
    assert Sqrt(4.0).value(0.25) == pytest.approx(2.0, abs=1e-15)


def test_lind_eval():
    # 4 - 4*sqrt(1 - 0.75) = 4 - 4*0.5
    assert Lind(4.0).value(0.75) == pytest.approx(2.0, abs=1e-15)
    assert Lind(4.0).value(0.0) == 0.0
    assert Lind(4.0).value(1.0) == 4.0


def test_lind_domain_error():
    with pytest.raises(DomainError):
        Lind(4.0).value(1.5)
    with pytest.raises(DomainError):
        Constant(1.0).value(-0.3)
    # NaN fails every `t < bound` test; the domain check must still reject it
    for term in (Lind(4.0), Constant(0.0)):
        with pytest.raises(DomainError):
            term.value(math.nan)


def test_scaled_is_loewner_scaling():
    base = Sqrt(3.0)
    r = 2.0
    sc = Scaled(base, r)
    for t in (0.0, 0.1, 1.0):
        assert sc.value(t) == pytest.approx(r * base.value(t / r**2), rel=1e-15)
    assert Scaled(Lind(4.0), 0.5).domain_end == pytest.approx(0.25)
    assert sc.exact_half_norm == base.exact_half_norm


@pytest.mark.parametrize("r", [0.0, -1.0, math.nan, math.inf, 1e200, 1e-200])
def test_scale_and_radius_must_be_positive_and_finite(r):
    # a NaN or infinite factor made every value NaN; so did a square that
    # overflows (r**2 raised OverflowError) or underflows to 0 (every value
    # divided by it)
    with pytest.raises(ValueError):
        Scaled(Sqrt(1.0), r)
    with pytest.raises(ValueError):
        TangentTerm(r)


@pytest.mark.parametrize("family", [Constant, Sqrt, Lind])
@pytest.mark.parametrize("c", [math.nan, math.inf, -math.inf])
def test_family_parameter_must_be_finite(family, c):
    # a non-finite c makes every value non-finite, and a solve would fail far
    # from the cause (step size underflow, a bootstrap that left its side)
    with pytest.raises(ValueError, match="not finite"):
        family(c)


def test_onset_exponent_is_a_fact_of_the_term():
    for term in (Constant(1.0), Sqrt(2.0), Lind(4.0), Scaled(Lind(4.0), 2.0)):
        assert term.onset_exponent == 0.5
    assert TangentTerm(2.0).onset_exponent == 1.0 / 3.0
    assert Scaled(TangentTerm(1.0), 0.5).onset_exponent == 1.0 / 3.0


def test_sampled_interpolates_linearly():
    term = Sampled([0.0, 1.0, 2.0], [0.0, 2.0, 2.0])
    assert term.value(0.5) == pytest.approx(1.0)
    assert term.value(1.5) == pytest.approx(2.0)
    assert np.allclose(term.values([0.0, 0.25, 2.0]), [0.0, 0.5, 2.0])


def reference_sampled_value(term, t):
    """Sampled.value as an ndarray bisect with numpy-scalar arithmetic, the
    reference for the list-backed lookup; t lies in [0, end*(1 + 1e-12)]."""
    ts, vs = term.times, term.table_values
    t = min(float(t), term.domain_end)  # a time past the end by rounding
    i = bisect_right(ts, t)
    if i >= ts.size:
        return float(vs[-1])
    t0, t1 = ts[i - 1], ts[i]
    v0, v1 = vs[i - 1], vs[i]
    return float(v0 + (v1 - v0) * (t - t0) / (t1 - t0))


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_sampled_value_equals_the_reference_lookup(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 400))
    times = np.concatenate(([0.0], np.cumsum(rng.uniform(1e-6, 0.1, n - 1))))
    term = Sampled(times, rng.normal(0.0, 3.0, n))
    end = term.domain_end
    probes = np.concatenate((rng.uniform(0.0, end, 500), times,
                             [0.0, -0.0, end, end * (1 + 0.5e-12)]))
    for t in probes:
        assert term.value(t) == reference_sampled_value(term, t)
    assert term.value(end * (1 + 0.5e-12)) == term.value(end)
    # no slack below 0, and only the relative 1e-12 past the end
    for t in (-0.5e-12, end * (1 + 2e-12)):
        with pytest.raises(DomainError):
            term.value(t)
    # one interpolant: the array lookup is the scalar one the stepper uses
    assert term.values(probes).tolist() == [term.value(t) for t in probes]


@st.composite
def _sampled_and_probes(draw):
    """A sampled term and times on its nodes, between nodes, at both ends and
    inside the relative rounding slack past the end."""
    steps = draw(st.lists(st.floats(1e-6, 5.0), min_size=1, max_size=30))
    times = np.concatenate(([0.0], np.cumsum(steps)))
    table = draw(st.lists(st.floats(-1e3, 1e3), min_size=times.size, max_size=times.size))
    term = Sampled(times, table)
    end = term.domain_end
    probe = st.one_of(
        st.integers(0, times.size - 1).map(lambda i: float(times[i])),
        st.tuples(st.integers(0, times.size - 2), st.floats(0.0, 1.0)).map(
            lambda p: float(times[p[0]] + p[1] * (times[p[0] + 1] - times[p[0]]))),
        st.sampled_from((0.0, -0.0, end)), st.floats(end, end * (1 + 1e-12)))
    return term, draw(st.lists(probe, min_size=1, max_size=40))


@settings(max_examples=200)
@given(case=_sampled_and_probes())
def test_sampled_values_equal_the_scalar_lookup(case):
    term, probes = case
    expected = [term.value(t) for t in probes]
    assert term.values(probes).tolist() == expected
    assert expected == [reference_sampled_value(term, t) for t in probes]
    end = term.domain_end
    for outside in (-5e-324, -2e-12, end * (1 + 2e-12), math.nan):
        with pytest.raises(DomainError):
            term.values(probes + [outside])


_PARAM = st.floats(-10.0, 10.0)
_RADIUS = st.floats(0.1, 10.0)
_BASE = st.one_of(_PARAM.map(Sqrt), _PARAM.map(Lind), _RADIUS.map(TangentTerm))


@st.composite
def _term_and_probes(draw):
    """A term of one family and times inside its domain, at 0, -0.0 and the
    domain end, and inside the relative rounding slack past the end."""
    term = draw(st.one_of(
        _PARAM.map(Constant), _PARAM.map(Sqrt), _PARAM.map(Lind),
        st.builds(Scaled, _BASE, _RADIUS), _RADIUS.map(TangentTerm),
        _RADIUS.map(lambda end: FromCallable(math.cos, end)), st.just(FromCallable(math.atan))))
    end = term.domain_end
    probes = [st.floats(0.0, 10.0 if end is None else end), st.sampled_from((0.0, -0.0))]
    if end is not None:
        probes += [st.just(end), st.floats(end, end * (1 + 1e-12))]
    return term, draw(st.lists(st.one_of(*probes), min_size=1, max_size=40))


@settings(max_examples=200)
@given(case=_term_and_probes())
def test_values_equal_value_bit_for_bit_in_every_family(case):
    # values is the array evaluation the bridge and the CLI sample terms
    # with: any drift in the last bit would set them apart from the solves,
    # which call value
    term, probes = case
    expected = [term.value(t).hex() for t in probes]
    assert [v.hex() for v in term.values(probes).tolist()] == expected
    end = term.domain_end
    if end is not None:
        assert all(term.value(t) == term.value(end) for t in probes if t > end)
    outside = [-5e-324, -2e-12, math.nan] + ([] if end is None else [end * (1 + 2e-12)])
    for t in outside:
        with pytest.raises(DomainError):
            term.values(probes + [t])


@st.composite
def _loewner_scaled_term(draw):
    """Scaled(Lind(c), r), TangentTerm(r) or a sampled table scaled by r
    (times by r**2, values by r), with r log-uniform in [1e-8, 1e4]."""
    r = math.exp(draw(st.floats(math.log(1e-8), math.log(1e4))))
    kind = draw(st.sampled_from(("lind", "tangent", "sampled")))
    if kind == "lind":
        return Scaled(Lind(draw(_PARAM)), r)
    if kind == "tangent":
        return TangentTerm(r)
    steps = draw(st.lists(st.floats(1e-6, 5.0), min_size=1, max_size=10))
    table = draw(st.lists(st.floats(-1e3, 1e3), min_size=len(steps) + 1,
                          max_size=len(steps) + 1))
    return Sampled(r * r * np.concatenate(([0.0], np.cumsum(steps))), r * np.asarray(table))


@settings(max_examples=200)
@given(term=_loewner_scaled_term(), tiny=st.floats(5e-324, 1e-12))
@example(term=TangentTerm(1e-6), tiny=1e-13)
@example(term=Scaled(Lind(4.0), 1e-7), tiny=5e-324)
def test_domain_rule_is_scale_free(term, tiny):
    # the domain end slack is relative, so the rule is the same at every
    # Loewner scale; no time below 0 is in the domain
    end = term.domain_end
    assert term.value(end * (1 + 0.5e-12)) == term.value(end)
    for t in (end * (1 + 4e-12), 3.0 * end, -tiny):
        with pytest.raises(DomainError):
            term.value(t)
        with pytest.raises(DomainError):
            term.values([t])
        with pytest.raises(DomainError):
            term.check_covers(t)


def test_sampled_validation():
    with pytest.raises(ValueError):
        Sampled([0.1, 0.2], [1.0, 2.0])  # must start at 0
    with pytest.raises(ValueError):
        Sampled([0.0, 0.0], [1.0, 2.0])  # strictly increasing
    with pytest.raises(ValueError):
        Sampled([0.0, 1.0], [1.0, float("nan")])


def test_parse_round_trips():
    for spec in ("constant:0.5", "sqrt:3.0", "lind:4.0", "tangent:1.0"):
        assert parse_term(spec).spec_string() == spec


def test_parse_rejects_malformed():
    for bad in ("bogus:1", "constant", "sqrt:abc"):
        with pytest.raises(ValueError):
            parse_term(bad)


def test_csv_round_trip(tmp_path):
    path = tmp_path / "term.csv"
    times = np.linspace(0.0, 1.0, 7)
    values = np.sin(times)
    write_sampled_csv(path, times, values)
    term = load_sampled_csv(path)
    assert np.array_equal(term.times, times)
    assert np.array_equal(term.table_values, values)
    assert parse_term(term.spec_string()).domain_end == 1.0


def test_csv_rejects_bad_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("time,val\n0,1\n1,2\n")
    with pytest.raises(ValueError):
        load_sampled_csv(path)


ENTRY_POINTS = {
    "evolve_interior": lambda term, t: evolve_interior(term, 1 + 1j, t),
    "evolve_boundary": lambda term, t: evolve_boundary(term, 2.0, t),
    "evolve_disk_interior": lambda term, t: evolve_disk_interior(term, 0.5j, t),
    "evolve_disk_boundary": lambda term, t: evolve_disk_boundary(term, 2.0, t),
    "singular_plus": lambda term, t: singular_plus(term, t),
    "extract_trace": lambda term, t: extract_trace(term, [t]),
}


@pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
def test_entry_points_check_the_domain(entry):
    term = Lind(4.0)
    for t_end in (1.5 * term.domain_end, math.nan):
        with pytest.raises(DomainError):
            ENTRY_POINTS[entry](term, t_end)

def test_check_covers():
    Lind(4.0).check_covers(1.0)
    Lind(4.0).check_covers(1.0 + 1e-13)  # relative rounding slack
    with pytest.raises(DomainError):
        Lind(4.0).check_covers(-1e-3)
    # no domain_end: every finite t_end >= 0 is covered, negative and infinite ones are not
    Constant(0.0).check_covers(1e9)
    for t_end in (-1.0, math.inf):
        with pytest.raises(DomainError):
            Constant(0.0).check_covers(t_end)

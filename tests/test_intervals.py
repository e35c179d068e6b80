import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from tstrees.core import Comparator, Instance, Interval, IntervalRelation, TemporalDecision
from tstrees.intervals import (
    allen_related,
    check_decision,
    derivative,
    enumerate_intervals,
    holds_on,
    relation_rectangle,
    required_count,
    split_dataset,
    successors,
)

import oracles
from conftest import random_dataset, random_decision

Rel = IntervalRelation

# The worked vital-signs series: oxygen saturation, arterial pressure,
# temperature over five points.
O2 = [88.0, 89.0, 90.0, 85.0, 82.0]
PR = [105.0, 107.0, 110.0, 108.0, 102.0]
TE = [37.0, 37.0, 39.0, 39.0, 37.0]


def test_allen_related_examples():
    assert allen_related(Interval(2, 4), Interval(4, 7), Rel.A)
    assert allen_related(Interval(1, 5), Interval(2, 4), Rel.D)
    assert allen_related(Interval(1, 3), Interval(1, 3), Rel.EQ)
    assert not allen_related(Interval(1, 3), Interval(1, 3), Rel.B)


def test_allen_transposition_exhaustive():
    for n in range(2, 9):
        ivals = enumerate_intervals(n)
        for i in ivals:
            for j in ivals:
                for rel in Rel:
                    if rel is Rel.EQ:
                        continue
                    assert allen_related(i, j, rel) == allen_related(j, i, rel.transpose)


def test_relations_jointly_exhaustive_and_exclusive():
    for n in range(2, 9):
        ivals = enumerate_intervals(n)
        for i in ivals:
            for j in ivals:
                matches = [rel for rel in Rel if allen_related(i, j, rel)]
                assert len(matches) == 1, (i, j, matches)


def test_allen_related_matches_direct_definitions():
    for n in range(2, 9):
        ivals = enumerate_intervals(n)
        for i in ivals:
            for j in ivals:
                for rel, fn in oracles.RELATION_DEFS.items():
                    assert allen_related(i, j, rel) == fn(i.x, i.y, j.x, j.y)


def test_successors_examples():
    assert successors(Interval(2, 3), Rel.L, 6) == [Interval(4, 5), Interval(4, 6), Interval(5, 6)]
    assert successors(Interval(0, 1), Rel.A, 3) == [Interval(1, 2), Interval(1, 3)]
    assert successors(Interval(1, 4), Rel.D, 4) == [Interval(2, 3)]
    assert successors(Interval(0, 1), Rel.B, 5) == []
    assert successors(Interval(2, 4), Rel.EQ, 5) == [Interval(2, 4)]


def test_successors_equal_filtered_enumeration():
    for n in range(2, 11):
        ivals = enumerate_intervals(n)
        for i in ivals:
            for rel in Rel:
                expected = [j for j in ivals if allen_related(i, j, rel)]
                got = successors(i, rel, n)
                assert got == expected
                assert got == sorted(got, key=lambda v: (v.x, v.y))
                r1, r2, c1, c2 = relation_rectangle(rel, i.x, i.y, n)
                inside = [j for j in ivals if r1 <= j.x <= r2 and c1 <= j.y <= c2]
                assert inside == expected, (i, rel)


def test_derivative_examples():
    assert derivative(O2, 0).tolist() == O2
    assert derivative(O2, 1).tolist() == [1.0, 1.0, -5.0, -3.0]
    assert derivative([1.0, 2.0, 4.0], 2).tolist() == [1.0]
    with pytest.raises(ValueError):
        derivative([1.0, 2.0], 2)
    with pytest.raises(ValueError):
        derivative([1.0, 2.0], -1)


def test_required_count_exact_ceiling():
    assert required_count(1.0, 5) == 5
    assert required_count(0.5, 5) == 3
    # the ceiling is taken on the exact binary value of alpha
    assert required_count(0.6, 5) == 3
    assert required_count(0.7, 5) == 4


def test_holds_on_worked_series():
    assert holds_on(O2, Interval(1, 3), Comparator.GT, 86.0, 1.0, 0)
    assert holds_on(TE, Interval(1, 2), Comparator.LE, 38.0, 1.0, 0)
    assert holds_on(PR, Interval(2, 4), Comparator.GT, 105.0, 1.0, 0)
    # point 1 (Pr = 105) is not > 105, so [1, 4] fails at alpha 1
    assert not holds_on(PR, Interval(1, 4), Comparator.GT, 105.0, 1.0, 0)


def test_holds_on_fraction_arithmetic():
    # five-point interval with three satisfying points
    channel = [1.0, 1.0, 1.0, 0.0, 0.0]
    assert holds_on(channel, Interval(1, 5), Comparator.GT, 0.5, 0.6, 0)
    assert not holds_on(channel, Interval(1, 5), Comparator.GT, 0.5, 0.7, 0)


def test_holds_on_point_zero_carries_no_data():
    # [0, 1] clips to the single data point 1
    assert holds_on([5.0, 0.0, 0.0], Interval(0, 1), Comparator.GT, 4.0, 1.0, 0)
    assert not holds_on([3.0, 9.0, 9.0], Interval(0, 1), Comparator.GT, 4.0, 1.0, 0)


def test_holds_on_empty_clip_fails():
    # with z = 2 the derivative has a single point; [3, 4] clips empty
    channel = [1.0, 2.0, 4.0, 8.0]
    assert not holds_on(channel, Interval(3, 4), Comparator.LE, 100.0, 1.0, 2)


def test_holds_on_alpha_monotone(rng):
    for _ in range(200):
        length = int(rng.integers(2, 9))
        channel = rng.normal(size=length)
        x = int(rng.integers(0, length))
        y = int(rng.integers(x + 1, length + 1))
        thr = float(rng.normal())
        a_hi = float(rng.uniform(0.05, 1.0))
        a_lo = float(rng.uniform(0.01, a_hi))
        if holds_on(channel, Interval(x, y), Comparator.LE, thr, a_hi, 0):
            assert holds_on(channel, Interval(x, y), Comparator.LE, thr, a_lo, 0)


def test_check_decision_worked_example():
    inst = Instance(np.array([O2, PR, TE]), 0, reference=Interval(1, 2))
    decision = TemporalDecision(Rel.A, 1, 0, Comparator.GT, 105.0, 1.0)
    result = check_decision(inst, decision)
    assert result.satisfied
    # [2,3] and [2,4] both satisfy; leftmost-shortest picks [2,3]
    assert result.witness == Interval(2, 3)


def test_check_decision_eq_does_not_move():
    inst = Instance(np.array([TE]), 0, reference=Interval(1, 2))
    yes = TemporalDecision(Rel.EQ, 0, 0, Comparator.LE, 38.0, 1.0)
    no = TemporalDecision(Rel.EQ, 0, 0, Comparator.GT, 38.0, 1.0)
    r1 = check_decision(inst, yes)
    assert r1.satisfied and r1.witness is None
    r2 = check_decision(inst, no)
    assert not r2.satisfied and r2.witness is None


def test_check_decision_empty_successors():
    inst = Instance(np.array([[1.0, 2.0, 3.0]]), 0, reference=Interval(0, 1))
    decision = TemporalDecision(Rel.B, 0, 0, Comparator.LE, 100.0, 1.0)
    result = check_decision(inst, decision)
    assert not result.satisfied and result.witness is None


def test_check_decision_dimension_error():
    inst = Instance(np.array([[1.0, 2.0]]), 0)
    decision = TemporalDecision(Rel.A, 3, 0, Comparator.LE, 1.0, 1.0)
    with pytest.raises(ValueError):
        check_decision(inst, decision)


def test_check_decision_against_slow_oracle(rng):
    for _ in range(60):
        ds = random_dataset(
            rng,
            m=int(rng.integers(2, 6)),
            n=int(rng.integers(1, 3)),
            length=int(rng.integers(3, 8)),
            q=2,
            random_references=True,
        )
        for _ in range(25):
            decision = random_decision(rng, ds)
            for inst in ds.instances:
                want_sat, want_wit = oracles.slow_check(inst, decision)
                got = check_decision(inst, decision)
                assert got.satisfied == want_sat
                if want_sat and decision.relation is not Rel.EQ:
                    assert (got.witness.x, got.witness.y) == want_wit
                else:
                    assert got.witness is None


@st.composite
def _checks(draw):
    """An instance on a random reference interval of a 2-, 3- or 10-point
    series, and a decision of any relation with degree up to N - 1.  Values
    and thresholds come from coarse grids so that they coincide."""
    n = draw(st.sampled_from((2, 3, 10)))
    x = draw(st.integers(0, n - 1))
    y = draw(st.integers(x + 1, n))
    values = draw(st.lists(st.integers(-2, 2), min_size=n, max_size=n))
    inst = Instance(np.array([values], dtype=np.float64) / 2, 0, reference=Interval(x, y))
    decision = TemporalDecision(
        relation=draw(st.sampled_from(list(Rel))),
        attribute_index=0,
        derivative_degree=draw(st.integers(0, n - 1)),
        comparator=draw(st.sampled_from(list(Comparator))),
        threshold=draw(st.integers(-6, 6)) / 4,
        alpha=draw(st.sampled_from((0.3, 0.5, 0.7, 1.0))),
    )
    return inst, decision


# Seven of ten points above 0.5: ceil(0.7 * 10) = 7 holds exactly on the
# binary value of 0.7, which sits just below 7/10.
_SEVEN_OF_TEN = np.array([[0, 0, 0, 1, 1, 1, 1, 1, 1, 1]], dtype=np.float64)


@settings(max_examples=400, deadline=None)
@given(_checks())
@example((Instance(_SEVEN_OF_TEN, 0, reference=Interval(1, 10)),
          TemporalDecision(Rel.EQ, 0, 0, Comparator.GT, 0.5, 0.7)))
@example((Instance(_SEVEN_OF_TEN, 0, reference=Interval(0, 1)),
          TemporalDecision(Rel.BI, 0, 0, Comparator.GT, 0.5, 0.7)))  # witness [0, 10]
@example((Instance(_SEVEN_OF_TEN, 0, reference=Interval(0, 1)),
          TemporalDecision(Rel.BI, 0, 0, Comparator.GT, 0.5, 0.75)))
def test_check_decision_matches_slow_check_property(case):
    inst, decision = case
    want_sat, want_witness = oracles.slow_check(inst, decision)
    got = check_decision(inst, decision)
    assert got.satisfied == want_sat
    got_witness = None if got.witness is None else (got.witness.x, got.witness.y)
    assert got_witness == want_witness


def test_witness_postconditions(rng):
    for _ in range(80):
        ds = random_dataset(rng, m=3, n=2, length=6, q=2, random_references=True)
        decision = random_decision(rng, ds)
        for inst in ds.instances:
            result = check_decision(inst, decision)
            if result.satisfied and decision.relation is not Rel.EQ:
                w = result.witness
                assert allen_related(inst.reference, w, decision.relation)
                assert holds_on(
                    inst.channels[decision.attribute_index],
                    w,
                    decision.comparator,
                    decision.threshold,
                    decision.alpha,
                    decision.derivative_degree,
                )


def test_split_dataset_empty_and_total():
    decision = TemporalDecision(Rel.A, 0, 0, Comparator.LE, 10.0, 1.0)
    assert split_dataset([], decision) == ([], [])
    instances = [Instance(np.array([[1.0, 2.0, 3.0]]), 0) for _ in range(3)]
    t1, t2 = split_dataset(instances, decision)
    assert len(t1) == 3 and t2 == []
    for moved in t1:
        assert moved.reference == Interval(1, 2)  # leftmost successor of [0,1]


def test_split_dataset_derived_partition(rng):
    values = [(0.0, 0), (1.0, 0), (9.0, 1), (10.0, 1)]
    instances = [Instance(np.array([[v, v]]), c) for v, c in values]
    decision = TemporalDecision(Rel.A, 0, 0, Comparator.LE, 5.0, 1.0)
    t1, t2 = split_dataset(instances, decision)
    for inst in instances:
        want, _ = oracles.slow_check(inst, decision)
        side = t1 if want else t2
        assert any(np.array_equal(inst.channels, s.channels) for s in side)
    assert len(t1) == 2 and len(t2) == 2


def test_split_dataset_properties(rng):
    for _ in range(40):
        ds = random_dataset(rng, m=6, n=2, length=6, q=3, random_references=True)
        decision = random_decision(rng, ds)
        t1, t2 = split_dataset(ds.instances, decision)
        assert len(t1) + len(t2) == ds.size
        ids = {id(i) for i in ds.instances}
        # fresh copies, originals untouched
        for moved in t1 + t2:
            assert id(moved) not in ids
        for kept in t2:
            src = next(
                o for o in ds.instances if o.channels is kept.channels
            )
            assert kept.reference == src.reference


@st.composite
def _routing_batches(draw):
    """1 to 20 instances of one 2- to 8-point channel, each standing on one
    of a pool of 1 to 3 reference intervals, so that a batch has repeated
    and distinct references; and a decision of any relation and comparator
    with degree up to 1.  Values and thresholds come from coarse grids so
    that they coincide."""
    n = draw(st.integers(2, 8))
    interval = st.integers(0, n - 1).flatmap(
        lambda x: st.integers(x + 1, n).map(lambda y: Interval(x, y))
    )
    pool = draw(st.lists(interval, min_size=1, max_size=3, unique=True))
    instances = [
        Instance(
            np.array([draw(st.lists(st.integers(-2, 2), min_size=n, max_size=n))]) / 2,
            draw(st.integers(0, 1)),
            reference=draw(st.sampled_from(pool)),
        )
        for _ in range(draw(st.integers(1, 20)))
    ]
    decision = TemporalDecision(
        relation=draw(st.sampled_from(list(Rel))),
        attribute_index=0,
        derivative_degree=draw(st.integers(0, min(1, n - 1))),
        comparator=draw(st.sampled_from(list(Comparator))),
        threshold=draw(st.integers(-6, 6)) / 4,
        alpha=draw(st.sampled_from((0.3, 0.5, 0.7, 1.0))),
        eq_tolerance=draw(st.sampled_from((0.0, 0.25))),
    )
    return instances, decision


@settings(max_examples=300, deadline=None)
@given(_routing_batches())
@example(([Instance(_SEVEN_OF_TEN.copy(), 0, reference=Interval(0, 1)),
           Instance(_SEVEN_OF_TEN[:, ::-1].copy(), 1, reference=Interval(0, 1)),
           Instance(_SEVEN_OF_TEN.copy(), 1, reference=Interval(2, 5))],
          TemporalDecision(Rel.BI, 0, 0, Comparator.GT, 0.5, 0.7)))
def test_split_dataset_matches_slow_check_property(batch):
    """The batched route agrees with the definition instance by instance,
    keeps input order on each side, returns fresh copies that share the
    channels, never moves an eq reference, and agrees with
    ``check_decision`` on one-instance batches."""
    instances, decision = batch
    t1, t2 = split_dataset(instances, decision)
    want = [oracles.slow_check(inst, decision) for inst in instances]
    held = [(inst, witness) for inst, (ok, witness) in zip(instances, want) if ok]
    failed = [inst for inst, (ok, _) in zip(instances, want) if not ok]
    assert (len(t1), len(t2)) == (len(held), len(failed))
    for copy, (inst, witness) in zip(t1, held):
        assert copy is not inst and copy.channels is inst.channels
        assert copy.class_index == inst.class_index
        if decision.relation is Rel.EQ:
            assert witness is None and copy.reference == inst.reference
        else:
            assert (copy.reference.x, copy.reference.y) == witness
    for copy, inst in zip(t2, failed):
        assert copy is not inst and copy.channels is inst.channels
        assert (copy.class_index, copy.reference) == (inst.class_index, inst.reference)
    for inst in instances:
        result = check_decision(inst, decision)
        alone = split_dataset([inst], decision)
        assert (len(alone[0]), len(alone[1])) == ((1, 0) if result.satisfied else (0, 1))
        if result.witness is not None:
            assert alone[0][0].reference == result.witness


@pytest.mark.parametrize("n", [126, 127, 128, 150])
def test_routing_on_long_series_matches_slow_check(n):
    """Routing on either side of N = 127, where counts switch from int8 to
    int16 (they must hold N + 1, the count never met), against the
    definition: every
    relation under a z = 0 and a z = 1 decision, from references at both
    ends and in the middle, so that successors reach the last points, past
    the z = 1 data, and L, D and their inverses read boxes holding cells
    with u >= v.  Each instance is checked alone and in one pooled batch.
    Relations whose successor sets here exceed 1000 intervals are skipped
    for that reference, to keep the oracle's scan short."""
    rng = np.random.default_rng(n)
    refs = [Interval(0, 1), Interval(3, 40), Interval(n // 2 - 20, n // 2 + 20),
            Interval(n - 40, n - 6), Interval(n - 45, n - 44), Interval(n - 2, n)]
    pool = [Instance((rng.random((1, n)) < 0.75).astype(float), 0, reference=r) for r in refs]
    outcomes = set()
    for rel in Rel:
        batch = [inst for inst in pool if len(successors(inst.reference, rel, n)) <= 1000]
        for comparator, z in ((Comparator.GT, 0), (Comparator.LE, 1)):
            decision = TemporalDecision(rel, 0, z, comparator, 0.5, 0.8)
            want = [oracles.slow_check(inst, decision) for inst in batch]
            t1, t2 = split_dataset(batch, decision)
            moved = iter(t1)
            for inst, (ok, witness) in zip(batch, want):
                got = check_decision(inst, decision)
                assert got.satisfied == ok, (rel, z, inst.reference)
                assert got.witness == (None if witness is None else Interval(*witness))
                if ok:
                    assert next(moved).reference == (got.witness or inst.reference)
                outcomes.add((rel, ok))
            assert len(t1) == sum(ok for ok, _ in want)
            assert [inst.reference for inst in t2] == [
                inst.reference for inst, (ok, _) in zip(batch, want) if not ok]
    assert outcomes == {(rel, ok) for rel in Rel for ok in (False, True)}

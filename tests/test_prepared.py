"""Differential tests of `audits._Prepared` against literal builds.

The build reads the population's cached integer table and reduces each
predictor product by a gcd; `oracles.prepared_fraction_oracle` builds the
same fields by Fraction products, cell by cell.  It scales once per
distinct (weight, prediction) pair of objects;
`oracles.prepared_per_individual` is the build one individual at a time.
The array fields are compared as lists.  The one cell-table kernel is
checked against a literal loop over the individuals under each of its
accumulators (int64 while D <= 2^60, Python ints beyond), its exact
overflow guard on crafted rows, also where D passes 2^53 and a float sum
rounds, and its hypothesis class's cached y-index against the lists
looked up per hypothesis.  The benchmark's instance shapes are checked
for the accumulator they take.
A build regrouped on another grid (`_Prepared.on`) is checked against
the per-individual build on that grid, and grid levels, sorted on
integers, against the order of their Fraction weights on materialized,
implicit and mixed-type `from_points` grids.  `audits._prepared`, the
memo on the predictor, is checked against fresh builds, per population
and grid object, for one mass build per predictor, and for cycles.
"""

import gc
import weakref
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from multifair import (
    ConstructionTranscript,
    LossTable,
    OutcomeDist,
    OutcomeSpace,
    HypothesisClass,
    PopulationInstance,
    Predictor,
    SimplexGrid,
    audit_calibration,
    audit_covariance_mc,
    audit_multi_accuracy,
    audit_multi_calibration,
    audit_oi,
    audit_strict_multi_calibration,
    best_response,
    binary_space,
    check_conditional,
    fixture_grid_population,
    make_family,
    make_grid_with_denominator,
    mc_event_distinguisher,
    mwu_rule,
    omni_bound_check,
    random_instance,
    serialize,
    update,
    violation_profile,
    zero_one_loss,
)
from multifair import audits
from multifair.audits import _column_magnitudes, _Prepared, _prepared
from multifair.errors import InternalInvariantError
import oracles
from oracles import (
    cell_tables_loop,
    prepared_fraction_oracle,
    prepared_per_individual,
    y_index_per_hypothesis,
)
from test_oi_golden import float_truth_instances

# pairwise coprime denominators far beyond int64 products
LARGE_PRIMES = (10007, 1000003, 2**31 - 1, 2**61 - 1, 2**89 - 1)
FIELDS = ("D", "star", "diff", "levels", "points", "level_of", "level_weight")
ARRAYS = ("star", "diff", "level_of")


def _field(prep, name):
    """A `_Prepared` field, with its arrays as lists."""
    value = getattr(prep, name)
    return value.tolist() if name in ARRAYS else value


def _split(draw, total, k):
    """k nonnegative integers summing to total."""
    cuts = sorted(draw(st.lists(st.integers(0, total), min_size=k - 1, max_size=k - 1)))
    return [b - a for a, b in zip([0] + cuts, cuts + [total])]


def _dist(draw, space):
    """An exact point of the simplex over a small or a large prime denominator."""
    den = draw(st.sampled_from((1, 2, 3, 6) + LARGE_PRIMES))
    return OutcomeDist(space, tuple(Fraction(c, den) for c in _split(draw, den, space.size)))


@st.composite
def populations(draw):
    """A population whose weights are exact (some zero, some over a large
    prime) or floats, and whose truth rows use coprime denominators."""
    n = draw(st.integers(1, 6))
    space = binary_space() if draw(st.booleans()) else OutcomeSpace(("a", "b", "c"))
    ids = tuple(f"x{i}" for i in range(n))
    total = draw(st.sampled_from((1, 5, 12) + LARGE_PRIMES))
    parts = _split(draw, total, n)
    if draw(st.booleans()):
        weights = [Fraction(a, total) for a in parts]
    else:
        weights = [a / total for a in parts]
    p_true = {j: _dist(draw, space) for j in ids}
    return PopulationInstance(space, ids, dict(zip(ids, weights)), p_true)


def _predictor(draw, pop):
    """An exact predictor, or one whose predictions took one MWU step.

    Predictions come from a small pool, so levels hold several individuals.
    The pool holds one vertex twice, as ints and as Fractions: the two are
    equal but print differently, so a level must keep its first occurrence.
    """
    space = pop.space
    vertex = OutcomeDist.point_mass(space, draw(st.sampled_from(space.labels)))
    pool = [vertex, OutcomeDist(space, tuple(Fraction(w) for w in vertex.weights))]
    pool += [_dist(draw, space) for _ in range(draw(st.integers(1, len(pop.ids))))]
    exact = Predictor({j: draw(st.sampled_from(pool)) for j in pop.ids})
    if draw(st.booleans()):
        return exact
    rule = mwu_rule(pop.space, draw(st.sampled_from((0.3, 0.7))))
    loss = LossTable(pop.space, tuple((k % 3) / 2 for k in range(pop.space.size)))
    return Predictor({j: update(rule, d, loss) for j, d in exact.values.items()})


def _share_objects(draw, pop):
    """`pop` with float weights and truths that are shared objects: the
    first k individuals (in a drawn order) share one weight and the others
    another, and each truth is one of the population's own truth objects."""
    n = len(pop.ids)
    k = draw(st.integers(0, n - 1))
    shared = [1.0 / n] * n if k == 0 else [0.5 / k] * k + [0.5 / (n - k)] * (n - k)
    order = draw(st.permutations(range(n)))
    weight = {j: shared[i] for j, i in zip(pop.ids, order)}
    p_true = {j: pop.p_true[draw(st.sampled_from(pop.ids))] for j in pop.ids}
    return PopulationInstance(pop.space, pop.ids, weight, p_true)


def _hash_or_error(obj):
    try:
        return hash(obj)
    except TypeError as e:
        return type(e)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_integer_build_equals_fraction_per_cell_oracle(data):
    pop = data.draw(populations())
    twin = PopulationInstance(pop.space, pop.ids, pop.weight, pop.p_true)
    grid = data.draw(st.sampled_from((None, make_grid_with_denominator(pop.space, 2))))
    # two predictors in turn: the second build reuses the cached table
    for _ in range(2):
        pred = _predictor(data.draw, pop)
        prep = _Prepared(pop, pred, grid=grid)
        want = prepared_fraction_oracle(pop, pred, grid)
        for name in FIELDS:
            assert _field(prep, name) == want[name], name
        assert repr(prep.points) == repr(want["points"])
        table = pop._table
        assert table is not None
    assert pop._table is table
    assert pop == twin and repr(pop) == repr(twin)
    assert _hash_or_error(pop) == _hash_or_error(twin)


def test_float_truths_are_read_at_their_exact_values():
    """On float truth rows whose exact values miss 1, the build equals the
    Fraction oracle, which reads a truth row as a prediction is read, and
    each individual's row of `diff` sums to 0."""
    for pop, _, m, pred in float_truth_instances():
        grid = make_grid_with_denominator(pop.space, m)
        prep = _Prepared(pop, pred, grid=grid)
        want = prepared_fraction_oracle(pop, pred, grid)
        for name in FIELDS:
            assert _field(prep, name) == want[name], name
        assert not prep.diff.sum(axis=1).any()


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_build_per_distinct_value_equals_the_per_individual_build(data):
    pop = data.draw(populations())
    if data.draw(st.booleans()):
        pop = _share_objects(data.draw, pop)
    grids = (None, make_grid_with_denominator(pop.space, 2))
    grid = data.draw(st.sampled_from(grids))
    pred = _predictor(data.draw, pop)
    want = prepared_per_individual(pop, pred, grid)
    # a build on the grid, and a build on the other grid regrouped on it
    other = grids[grid is None]
    for prep in (_Prepared(pop, pred, grid=grid), _Prepared(pop, pred, grid=other).on(grid)):
        assert prep.grid is grid
        for name in FIELDS:
            assert _field(prep, name) == want[name], name
        assert repr(prep.star.tolist()) == repr(want["star"])
        assert repr(prep.diff.tolist()) == repr(want["diff"])
        assert repr(prep.mass.tolist()) == repr([sum(row) for row in want["star"]])
        assert repr(prep.level_weight) == repr(want["level_weight"])
        assert repr(prep.points) == repr(want["points"])
        assert prep.level_ratios == [tuple(x.as_integer_ratio() for x in d.weights)
                                     for d in want["levels"]]


def test_levels_equal_as_floats_are_ordered_by_exact_value():
    big = LARGE_PRIMES[-1]
    half = Fraction(big // 2, big)  # 1/(2P) below 1/2
    low = OutcomeDist(binary_space(), (half, 1 - half))
    high = OutcomeDist(binary_space(), (1 - half, half))
    assert float(half) == float(1 - half)
    # the higher level comes first in population order
    pop = PopulationInstance(binary_space(), ("a", "b"), {"a": Fraction(1, 2), "b": Fraction(1, 2)},
                             {"a": high, "b": low})
    pred = Predictor({"a": high, "b": low})
    prep = _Prepared(pop, pred)
    assert prep.points == [tuple(low.weights), tuple(high.weights)]
    assert prep.level_of.tolist() == [1, 0]
    assert prep.points == prepared_fraction_oracle(pop, pred)["points"]


def _mixed_types(rng, weights) -> tuple:
    """`weights` with each coordinate drawn as an int, Fraction or float of
    the same value, where that type holds it exactly."""
    out = []
    for w in map(Fraction, weights):
        kinds = [Fraction] + [float] * (w.denominator & (w.denominator - 1) == 0) \
            + [int] * (w.denominator == 1)
        out.append(kinds[rng.integers(len(kinds))](w))
    return tuple(out)


def _level_order_grids(rng, space):
    """A materialized coordinate grid, one too large to materialize, and a
    `from_points` grid whose weights mix ints, Fractions and floats; each
    has points over several reduced denominators."""
    yield make_grid_with_denominator(space, 12 if space.size < 4 else 6)
    yield make_grid_with_denominator(space, 64 if space.size > 3 else 840)
    comps = [rng.multinomial(d, [1 / space.size] * space.size) for d in (2, 3, 4, 6, 8, 8)]
    points = [OutcomeDist(space, (0,) * (space.size - 1) + (1,))]
    points += [OutcomeDist(space, _mixed_types(rng, [Fraction(int(c), int(comp.sum()))
                                                     for c in comp])) for comp in comps]
    yield SimplexGrid.from_points(points, 1)


def test_grid_levels_and_event_cells_are_in_exact_order():
    """Levels on a grid come out in the exact lexicographic order of their
    weights, as the integer numerators over the lcm of the denominators
    order them, and an mc event member given its points as ints,
    Fractions or floats reads them by value: its rows are the literal
    ones, and its payload cells are in exact order, each at the first
    tuple given for its value."""
    def exact(point):
        return tuple(map(Fraction, point))

    types = set()
    for seed, ell in ((0, 3), (1, 3), (2, 8)):
        rng = np.random.default_rng([seed, 33])
        pop, cls, pred = random_instance(rng, 16, ell, 2)
        rule = mwu_rule(pop.space, 0.4)
        loss = LossTable(pop.space, tuple((k % 3) / 2 for k in range(ell)))
        grids = list(_level_order_grids(rng, pop.space))
        assert [g.points is None for g in grids] == [False, True, False]
        assert {type(w) for q in grids[2].points for w in q.weights} == {int, Fraction, float}
        for p in (pred, Predictor({j: update(rule, d, loss) for j, d in pred.values.items()})):
            for grid in grids:
                prep = _Prepared(pop, p, grid)
                keys = [exact(d.weights) for d in prep.levels]
                assert keys == sorted(keys) and len(set(keys)) == len(keys)
                assert len({w.denominator for key in keys for w in key}) > 2
                for j, v in zip(pop.ids, prep.level_of.tolist()):
                    assert keys[v] == exact(grid.round_dist(p.values[j]).weights)
                h = cls.hypotheses[seed % len(cls)]
                event = [(y, o, _mixed_types(rng, point)) for point in prep.points
                         for y in h.range_values for o in pop.space.labels
                         if rng.random() < 0.4]
                types |= {type(x) for *_, w in event for x in w}
                d = mc_event_distinguisher(h, event, grid)
                rows = d.values(pop, p)
                want = {(y, o, exact(w)) for y, o, w in event}
                assert rows == [[int((h.values[j], o, keys[v]) in want) for o in pop.space.labels]
                                for j, v in zip(pop.ids, prep.level_of.tolist())]
                assert rows == oracles.member_rows_per_individual(d, pop, p)
                cells = d.payload["event_cells"]
                assert [(y, o, exact(w)) for y, o, w in cells] == sorted(want)
                first = {}
                for y, o, w in event:
                    first.setdefault(exact(w), w)
                assert all(w is first[exact(w)] for _, _, w in cells)
    assert types == {int, Fraction, float}


def _count_fraction_arithmetic(monkeypatch) -> list:
    """Record every Fraction *, +, - and / from here on."""
    calls = []
    for op in ("__mul__", "__rmul__", "__add__", "__radd__", "__sub__", "__truediv__"):
        original = getattr(Fraction, op)

        def counted(*args, op=op, original=original):
            calls.append(op)
            return original(*args)
        monkeypatch.setattr(Fraction, op, counted)
    return calls


def test_second_exact_build_makes_no_fraction_arithmetic(monkeypatch):
    pop, _, pred = random_instance(np.random.default_rng(3), 40, 3, 1)
    _Prepared(pop, pred)
    calls = _count_fraction_arithmetic(monkeypatch)
    _Prepared(pop, pred)
    assert calls == []


def test_second_exact_build_of_a_construct_iterate_makes_no_fraction_arithmetic(monkeypatch):
    """The construct path: an exact build on a coordinate grid from a float
    predictor one MWU step away.  Its predictions are exactified and rounded
    on integers, and its levels are the grid's own points."""
    pop, _, pred = random_instance(np.random.default_rng(3), 40, 3, 1)
    rule = mwu_rule(pop.space, 0.1)
    loss = LossTable(pop.space, (0.0, 0.5, 1.0))
    pred = Predictor({j: update(rule, d, loss) for j, d in pred.values.items()})
    grid = make_grid_with_denominator(pop.space, 4)
    assert not any(d.is_exact for d in pred.values.values())
    _Prepared(pop, pred, grid=grid)
    calls = _count_fraction_arithmetic(monkeypatch)
    prep = _Prepared(pop, pred, grid=grid)
    assert calls == []
    assert len(prep.levels) > 1
    assert all(any(p is level for p in grid.points) for level in prep.levels)


def _cell_tables_loop(prep, cls, rows):
    """`oracles.cell_tables_loop` over the prepared population's levels."""
    return cell_tables_loop(prep.ids, prep.level_of.tolist(), len(prep.levels), cls, rows)


def _kernel_instances(ell):
    """Populations of 300 and of 20 individuals (tables above and below 512
    entries).  Masses drawn as 0/1 counts (`weight_denominator=2`) keep D
    below 2^40 for an exact predictor.  Binary ones add a 3000 x 2 instance
    with 8 hypotheses, shaped like the benchmark's, whose D lies in
    (2^40, 2^60]."""
    binary = ell == 2
    yield random_instance(np.random.default_rng([ell, 17]), 300, ell, 3, binary_hypotheses=binary)
    for seed, n, den in ((18, 300, 2), (19, 20, 16), (19, 20, 2)):
        yield random_instance(np.random.default_rng([ell, seed]), n, ell, 3,
                              binary_hypotheses=binary, weight_denominator=den)
    if binary:
        pop, cls, pred = random_instance(np.random.default_rng([ell, 20]), 3000, ell, 8)
        assert 1 << 40 < _Prepared(pop, pred).D <= 1 << 60
        yield pop, cls, pred


@pytest.mark.parametrize("ell,grid_m", [(2, None), (2, 3), (8, None), (8, 2)])
def test_float_numpy_tables_equal_the_literal_loop(ell, grid_m):
    """The one kernel against a literal loop, under both accumulators, on
    exact and float predictors: int64 (D <= 2^60) and Python ints
    (D > 2^60)."""
    reached = set()
    for pop, cls, pred in _kernel_instances(ell):
        grid = make_grid_with_denominator(pop.space, grid_m) if grid_m else None
        rule = mwu_rule(pop.space, 0.7)
        loss = LossTable(pop.space, tuple((k % 3) / 2 for k in range(ell)))
        fpred = Predictor({j: update(rule, d, loss) for j, d in pred.values.items()})
        for p in (pred, fpred):
            prep = _Prepared(pop, p, grid=grid)
            dtype = str(prep.star.dtype)
            reached.add((dtype, len(pop.ids) * ell > 512))
            star, diff = prep.star.tolist(), prep.diff.tolist()
            for rows in (diff, star, [(sum(s), s[0]) for s in star]):
                ys, table = prep.cell_tables(cls, np.array(rows, dtype=prep.star.dtype))
                want_ys, want = _cell_tables_loop(prep, cls, rows)
                assert ys == want_ys and table.dtype == prep.star.dtype
                tables = table.tolist()
                assert all(type(x) is int for t in tables for row in t for x in row)
                assert repr(tables) == repr(want)
    assert reached == {(dtype, big) for dtype in ("int64", "object")
                       for big in (True, False)}


def test_int64_overflow_guard_trips_on_crafted_rows():
    """The int64 kernel sums rows whose absolute values add up to at most 2D
    per column; rows past that bound raise rather than wrap."""
    pop, cls, pred = fixture_grid_population(4)
    prep = _Prepared(pop, pred)
    assert prep.star.dtype == np.int64
    n, D = len(pop.ids), prep.D
    for rows in (np.full((n, 1), 2**62, dtype=np.int64),
                 np.full((n, 2), -2**63, dtype=np.int64)):
        with pytest.raises(InternalInvariantError):
            prep.cell_tables(cls, rows)
    # the guard is exact at the bound: |.| summing to 2D passes, 2D + 1 trips
    at_bound = np.zeros((n, 2), dtype=np.int64)
    at_bound[0, 1], at_bound[1, 1] = D, -D
    ys, table = prep.cell_tables(cls, at_bound)
    assert table.tolist() == _cell_tables_loop(prep, cls, at_bound.tolist())[1]
    at_bound[2, 1] = 1
    with pytest.raises(InternalInvariantError):
        prep.cell_tables(cls, at_bound)


@pytest.mark.parametrize("shape", [(0, 2), (1, 1), (7, 3), (2500, 2), (3000, 3)])
def test_column_magnitudes_are_the_column_sums_of_abs_rows(shape):
    """The guard's one-pass sums of 32-bit halves equal Python-int column
    sums of |rows|, with int64 min (whose |.| wraps in int64) counting 2^63,
    on C-ordered rows and on a transposed (Fortran-ordered) view."""
    rng = np.random.default_rng(shape)
    info = np.iinfo(np.int64)
    rows = rng.integers(info.min, info.max, size=shape, endpoint=True, dtype=np.int64)
    if rows.size:
        rows.flat[rng.integers(0, rows.size, size=1 + rows.size // 10)] = info.min
        rows[-1] = info.max
    for r in (rows, np.asfortranarray(rows)):
        want = [sum(abs(x) for x in col) for col in zip(*r.tolist())] or [0] * shape[1]
        assert _column_magnitudes(r) == want
        assert all(type(x) is int for x in _column_magnitudes(r))


def _guard_instance():
    """A prepared population of 3 individuals whose D lies in [2^59, 2^60):
    int64, and past 2^53, where a float sum of |rows| rounds."""
    pop, cls, pred = random_instance(np.random.default_rng(0), 3, 2, 2,
                                     weight_denominator=1 << 12)
    prep = _Prepared(pop, pred)
    assert prep.D.bit_length() == 60 and prep.star.dtype == np.int64
    return prep, cls


def test_int64_guard_is_exact_where_floats_round():
    """A column of |rows| summing to 2D passes and 2D + 1 raises, which a
    float sum would round back to 2D."""
    prep, cls = _guard_instance()
    D = prep.D
    rows = np.zeros((3, 2), dtype=np.int64)
    rows[0, 1], rows[1, 1] = D, -D
    ys, table = prep.cell_tables(cls, rows)
    assert table.tolist() == _cell_tables_loop(prep, cls, rows.tolist())[1]
    rows[2, 1] = 1
    assert float(2 * D + 1) == float(2 * D)
    with pytest.raises(InternalInvariantError):
        prep.cell_tables(cls, rows)


def test_int64_guard_bounds_the_total_of_all_columns():
    """Columns that each sum to at most 2D pass while their |rows| total
    2^63 - 1, and raise at 2^63: the sums of a table's |cells| reach that
    total."""
    prep, cls = _guard_instance()
    D = prep.D
    full, last = divmod((1 << 63) - 1, 2 * D)
    # each column holds (D, D, 0) but the last, which holds `last` split
    rows = np.zeros((3, full + 2), dtype=np.int64)
    rows[:2, :full] = D
    rows[0, full], rows[1, full] = last // 2, last - last // 2
    ys, table = prep.cell_tables(cls, rows)
    assert table.tolist() == _cell_tables_loop(prep, cls, rows.tolist())[1]
    assert int(np.abs(table).sum(axis=(1, 2)).max()) == (1 << 63) - 1
    rows[2, full + 1] = -1
    with pytest.raises(InternalInvariantError):
        prep.cell_tables(cls, rows)


def test_benchmark_shaped_instances_take_their_accumulators():
    """audit-pop's 3000 x 2 and 200 x 2 instances, drawn as the benchmark
    draws them at seeds 0 and 1, sum in int64 (D has 51 to 56 bits) and its
    600 x 8 one in Python ints (142 bits and more)."""
    for seed in (0, 1):
        rng = np.random.default_rng([seed, 1])
        shapes = ((3000, 2, 8), (600, 8, 4), (200, 2, 4))
        preps = [_Prepared(pop, pred)
                 for pop, _, pred in (random_instance(rng, *shape) for shape in shapes)]
        assert [p.star.dtype for p in preps] == [np.int64, object, np.int64]


def test_class_y_index_equals_the_per_hypothesis_lists():
    for seed, binary in ((0, True), (1, False)):
        pop, cls, _ = random_instance(np.random.default_rng(seed), 50, 2, 4,
                                      binary_hypotheses=binary, complement_closed=binary)
        index = cls._y_index(pop.ids)
        assert index.shape == (len(cls), len(pop.ids))
        assert index.tolist() == y_index_per_hypothesis(cls, pop.ids)
        assert cls._y_index(pop.ids) is index  # kept for the same ids tuple


def test_one_class_across_reordered_and_copied_ids_gives_fresh_tables():
    """The y-index is keyed by the identity of the ids tuple: a population
    with the same ids in another order, or an equal but separate tuple,
    rebuilds it, so the tables equal those of a fresh class."""
    pop, cls, pred = random_instance(np.random.default_rng(5), 40, 3, 3)
    reordered = PopulationInstance(pop.space, pop.ids[::-1], pop.weight, pop.p_true)
    copied = PopulationInstance(pop.space, tuple(list(pop.ids)), pop.weight, pop.p_true)
    assert copied.ids == pop.ids and copied.ids is not pop.ids
    for p in (pop, reordered, copied, pop, reordered):
        prep = _Prepared(p, pred)
        fresh = HypothesisClass(cls.hypotheses)
        assert repr(prep.cell_tables(cls, prep.diff)[1].tolist()) == \
            repr(prep.cell_tables(fresh, prep.diff)[1].tolist())
        assert cls._y_index(p.ids).tolist() == y_index_per_hypothesis(cls, p.ids)
        backend_reports = [audit_multi_calibration(p, pred, c, backend)
                           for c in (cls, HypothesisClass(cls.hypotheses))
                           for backend in ("rational", "float")]
        assert repr(backend_reports[:2]) == repr(backend_reports[2:])
        assert [r.breakdown for r in backend_reports[:2]] == \
            [r.breakdown for r in backend_reports[2:]]


def test_class_and_population_are_freed_once_dropped():
    """The cache lives on the class and holds only the ids tuple: no
    module-level registry keeps a class or a population alive."""
    pop, cls, pred = random_instance(np.random.default_rng(7), 30, 2, 2)
    audit_multi_calibration(pop, pred, cls)
    audit_multi_calibration(pop, pred, cls, "float")
    assert cls._index is not None and pop._table is not None
    refs = [weakref.ref(pop), weakref.ref(cls)]
    del pop, cls, pred
    gc.collect()
    assert [r() for r in refs] == [None, None]


def _every_audit(pop, cls, predictor, grid):
    """repr of every audit kind under both backends, with each report's
    fields, the predictor drawn from `predictor()` for each call."""
    fams = [make_family(kind, hypotheses=cls, grid=grid) for kind in ("basic", "mc", "smc")]
    fams.append(make_family("lowdegree", hypotheses=cls, degree=2, outcome_space=pop.space))
    fams.append(make_family("explicit", members=fams[0].members()[:6]))
    binary = pop.space.is_binary and cls.is_binary
    out = []
    for b in ("rational", "float"):
        out += [audit(pop, predictor(), cls, b) for audit in (
            audit_multi_accuracy, audit_multi_calibration, audit_strict_multi_calibration)]
        out.append(audit_calibration(pop, predictor(), b))
        if binary:
            out.append(audit_covariance_mc(pop, predictor(), cls, b))
            out.append(violation_profile(pop, predictor(), cls, b))
            out += [check_conditional(pop, predictor(), cls, Fraction(1, 10), kind, b)
                    for kind in ("MA", "MC", "SMC")]
        for fam in fams:
            out += [audit_oi(pop, predictor(), fam, b), best_response(pop, predictor(), fam, b)]
    if cls.is_binary:  # its values are the actions "0" and "1" of the loss
        out.append(omni_bound_check(pop, predictor(), [zero_one_loss(pop.space)], cls))
    return repr([vars(r) if hasattr(r, "__dict__") else r for r in out])


@pytest.mark.parametrize("ell,binary", [(2, True), (3, False), (8, True)])
def test_memo_hits_equal_fresh_builds_of_an_equal_predictor(ell, binary):
    """Every audit kind reads the same build from a warm memo as a fresh
    build of an equal but distinct predictor object gives it."""
    pop, cls, pred = random_instance(np.random.default_rng([ell, 71]), 12, ell, 3,
                                     binary_hypotheses=binary)
    grid = make_grid_with_denominator(pop.space, 2)
    _every_audit(pop, cls, lambda: pred, grid)
    warm = pred._prepared
    assert warm[0] is pop and len(warm[1]) == 2
    hits = _every_audit(pop, cls, lambda: pred, grid)
    assert pred._prepared is warm and len(warm[1]) == 2
    assert hits == _every_audit(pop, cls, lambda: Predictor(dict(pred.values)), grid)


def _count_builds(monkeypatch) -> tuple:
    """(builds, groupings): the (population, predictor, grid) of every
    `_Prepared` built, each of which scales the masses, and the grid of
    every level grouping, a build's or an `on` copy's."""
    builds, groupings = [], []
    init, group = _Prepared.__init__, _Prepared._group

    def counted(self, pop, predictor, grid=None):
        builds.append((pop, predictor, grid))
        init(self, pop, predictor, grid)

    def grouped(self, grid):
        groupings.append(grid)
        group(self, grid)
    monkeypatch.setattr(_Prepared, "__init__", counted)
    monkeypatch.setattr(_Prepared, "_group", grouped)
    return builds, groupings


def test_memo_builds_once_per_population_and_grid_object(monkeypatch):
    """A population with reordered ids and a copied population each get
    their own build, equal to a fresh one; a second equal grid object gets
    its own level grouping of the same masses."""
    pop, cls, pred = random_instance(np.random.default_rng(72), 20, 3, 3)
    grid, twin_grid = (make_grid_with_denominator(pop.space, 2) for _ in range(2))
    reordered = PopulationInstance(pop.space, pop.ids[::-1], pop.weight, pop.p_true)
    copied = PopulationInstance(pop.space, pop.ids, pop.weight, pop.p_true)
    assert copied == pop and copied is not pop
    builds, groupings = _count_builds(monkeypatch)
    for p in (pop, pop, reordered, copied, copied, pop):
        got = audit_multi_calibration(p, pred, cls)
        assert pred._prepared[0] is p
        fresh = audit_multi_calibration(p, Predictor(dict(pred.values)), cls)
        assert repr((got, got.breakdown)) == repr((fresh, fresh.breakdown))
    assert [b[0] for b in builds if b[1] is pred] == [pop, reordered, copied, pop]
    builds.clear()
    groupings.clear()
    for g in (grid, twin_grid, grid, None, twin_grid):
        assert _prepared(pop, pred, g).grid is g
    assert builds == [] and groupings == [grid, twin_grid]
    assert len(pred._prepared[1]) == 3


def test_one_build_per_population_predictor_and_grid(monkeypatch):
    """The population audits, the bound check, the float audits and the
    three grid OI families of one predictor make one build, without a grid,
    and group its levels once more, on the grid."""
    pop, cls, pred = random_instance(np.random.default_rng(73), 30, 2, 4)
    grid = make_grid_with_denominator(pop.space, 3)
    fams = [make_family(kind, hypotheses=cls, grid=grid) for kind in ("basic", "mc", "smc")]
    builds, groupings = _count_builds(monkeypatch)
    for audit in (audit_multi_accuracy, audit_multi_calibration,
                  audit_strict_multi_calibration, audit_covariance_mc, violation_profile):
        audit(pop, pred, cls)
    audit_calibration(pop, pred)
    for kind in ("MA", "MC", "SMC"):
        check_conditional(pop, pred, cls, Fraction(1, 10), kind)
    omni_bound_check(pop, pred, [zero_one_loss(pop.space)], cls)
    for audit in (audit_multi_accuracy, audit_multi_calibration,
                  audit_strict_multi_calibration):
        audit(pop, pred, cls, "float")
    audit_calibration(pop, pred, "float")
    for fam in fams:
        audit_oi(pop, pred, fam)
    assert [(p is pop, q is pred, g) for p, q, g in builds] == [(True, True, None)]
    assert groupings == [None, grid]


def test_one_mass_build_per_predictor_and_one_grouping_per_grid(monkeypatch):
    """MA, MC and SMC without a grid, the basic, mc and smc families on a
    grid and an event member on an equal twin grid scale the masses once
    and group them three times; every build shares the same arrays."""
    pop, cls, pred = random_instance(np.random.default_rng(76), 30, 3, 3)
    grid, twin = (make_grid_with_denominator(pop.space, 2) for _ in range(2))
    scaled = []
    products = audits._scaled_products

    def counted(*args):
        scaled.append(args)
        return products(*args)
    monkeypatch.setattr(audits, "_scaled_products", counted)
    _, groupings = _count_builds(monkeypatch)
    for audit in (audit_multi_accuracy, audit_multi_calibration,
                  audit_strict_multi_calibration):
        audit(pop, pred, cls)
    for kind in ("basic", "mc", "smc"):
        audit_oi(pop, pred, make_family(kind, hypotheses=cls, grid=grid))
    make_family("basic", hypotheses=cls, grid=twin).members()[0].values(pop, pred)
    assert len(scaled) == 1
    assert groupings == [None, grid, twin]
    for g in (grid, twin):
        prep = _prepared(pop, pred, g)
        assert prep.grid is g
        for name in ("diff", "star", "mass"):
            assert getattr(prep, name) is getattr(_prepared(pop, pred), name)


def test_dropped_predictor_population_and_class_are_freed_without_a_collection():
    """The memo holds the population and its builds; no build refers back to
    the predictor, so reference counting alone frees all three."""
    pop, cls, pred = random_instance(np.random.default_rng(74), 25, 2, 3)
    pred = Predictor(dict(pred.values))
    grid = make_grid_with_denominator(pop.space, 2)
    fams = [make_family("mc", hypotheses=cls, grid=grid),
            make_family("lowdegree", hypotheses=cls, degree=2, outcome_space=pop.space)]
    fams.append(make_family("explicit", members=make_family(
        "basic", hypotheses=cls, grid=grid).members()[:3]))
    audit_multi_calibration(pop, pred, cls)
    for fam in fams:
        best_response(pop, pred, fam)
    assert pred._prepared[0] is pop and len(pred._prepared[1]) == 2
    refs = [weakref.ref(x) for x in (pop, cls, pred)]
    gc.collect()
    gc.disable()
    try:
        del pop, cls, pred, fams
        assert [r() for r in refs] == [None, None, None]
    finally:
        gc.enable()


def test_a_warm_memo_jsonifies_as_a_cold_predictor():
    """Cache fields are not data: a predictor, population and grid with warm
    caches jsonify to the documents they gave cold."""
    pop, cls, pred = random_instance(np.random.default_rng(75), 10, 3, 2)
    grid = make_grid_with_denominator(pop.space, 2)
    cold = [serialize.jsonify(x) for x in (pred, pop, grid, cls)]
    audit_oi(pop, pred, make_family("mc", hypotheses=cls, grid=grid))
    grid.round_dist(pred.values[pop.ids[0]])
    assert pred._prepared is not None and pop._table is not None
    assert grid._point_of is not None and cls._index is not None
    warm = [serialize.jsonify(x) for x in (pred, pop, grid, cls)]
    assert warm == cold
    assert serialize.jsonify(ConstructionTranscript(final_predictor=pred)) == \
        serialize.jsonify(ConstructionTranscript(final_predictor=Predictor(dict(pred.values))))

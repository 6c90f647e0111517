import contextlib
import hashlib
import io
import json
import random
import tempfile
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ubcode import code_model
from ubcode.cli import load_spec, run, save_spec
from ubcode.finite_field import GF, Field
from ubcode.linalg import FieldTooSmallError
from ubcode.code_model import (
    InvalidParamsError,
    bounds,
    redundancy,
    update_bandwidth,
    verify_mds,
    zero_diagonal,
)
from ubcode.construct import build_mrmub, build_mub, fig1b
from ubcode.transform import (
    InvalidPairError,
    TransformedCode,
    iterate_transform,
    pair_transform,
    rotation_pairs,
)
from ubcode.cluster import Cluster

from conftest import random_fill


@pytest.fixture(scope="module")
def base42():
    return build_mrmub(4, 2, 2)  # GF(4) by the default-field policy


@pytest.fixture(scope="module")
def single_round(base42):
    return pair_transform(base42, (2, 3))


@pytest.fixture(scope="module")
def two_rounds(base42):
    return iterate_transform(base42, 2)


# -- validation -----------------------------------------------------------------


def test_rejects_binary_base(fig1b_code):
    with pytest.raises(FieldTooSmallError):
        pair_transform(fig1b_code, (2, 3))


def test_rejects_bad_pairs(base42):
    with pytest.raises(InvalidPairError):
        pair_transform(base42, (1, 1))
    with pytest.raises(InvalidPairError):
        pair_transform(base42, (0, 4))


def test_rejects_wrong_threshold():
    base = build_mrmub(5, 2, 2)  # k != n-2
    with pytest.raises(Exception):
        pair_transform(base, (3, 4))


def test_rotation_pairs():
    assert rotation_pairs(4, 2) == [(2, 3), (0, 1)]
    assert rotation_pairs(5, 3) == [(3, 4), (1, 2), (0, 1)]
    with pytest.raises(InvalidPairError):
        rotation_pairs(4, 3)
    with pytest.raises(InvalidPairError, match="rounds must be >= 0"):
        rotation_pairs(4, -1)


def test_rounds_are_capped_at_half_the_nodes(two_rounds):
    # A (4, 2) chain holds at most ceil(4/2) = 2 pairs, as rotation_pairs does.
    with pytest.raises(InvalidPairError, match=r"3 rounds exceed ceil\(4/2\)"):
        pair_transform(two_rounds, (2, 3))


def test_iterate_zero_rounds_is_base(base42):
    assert iterate_transform(base42, 0) is base42


def test_from_factors_is_a_usage_error(two_rounds):
    # The flat classmethod cannot build a round: its shape comes from a base.
    with pytest.raises(InvalidParamsError, match="built from its base and pairs"):
        TransformedCode.from_factors(two_rounds.k, *two_rounds.factors)


# -- correspondence ------------------------------------------------------------------


def test_zero_second_instance_zeroes_unpaired_lower_halves(base42, single_round):
    # The fill of instance 0 = x0 and instance 1 = 0, written out from the
    # pairing table: a holds x0[a] and x0[b] + g * 0, b holds x0[b] + 0 and
    # instance 1 of a, and every unpaired node x0[j] over instance 1's zeros.
    rng = random.Random(9)
    q, m = base42.field.q, base42.m[0]
    x0 = [[rng.randrange(q) for _ in range(m)] for _ in range(4)]
    a, b = single_round.pair
    fill = [x0[j] + [0] * m for j in range(4)]
    fill[a] = x0[a] + x0[b]
    cols = single_round.encode(fill)
    alpha = single_round.base_col_len
    base_cols = base42.encode(x0)
    for j in (0, 1):  # unpaired nodes stack the instances verbatim
        assert cols[j][alpha:] == [0] * alpha
        assert cols[j][:alpha] == base_cols[j]
    assert cols[a][:alpha] == base_cols[a]
    assert cols[a][alpha:] == base_cols[b]          # g * 0 vanishes
    assert cols[b][:alpha] == base_cols[b]
    assert cols[b][alpha:] == [0] * alpha           # instance-1 column of a


# -- optimality of the doubled code ---------------------------------------------------


def test_transformed_bandwidth_matrix(single_round):
    flat = single_round.as_irregular_code()
    grid, average = update_bandwidth(flat)
    for i in range(4):
        for j in range(4):
            if i != j:
                assert grid[i][j] == 2  # 2m/k for the doubled parameters
    assert average == Fraction(6)
    assert average == bounds(4, 2, [4, 4, 4, 4]).min_update_bandwidth


def test_transformed_bandwidth_matches_recursion(base42, single_round):
    # Entry-by-entry: doubled inside the unpaired block, merged on pair edges.
    g_base, _ = update_bandwidth(base42.code)
    g_new, _ = update_bandwidth(single_round.as_irregular_code())
    a, b = single_round.pair
    plain = [j for j in range(4) if j not in (a, b)]
    for i in plain:
        for j in plain:
            if i != j:
                assert g_new[i][j] == 2 * g_base[i][j]
        assert g_new[i][a] == g_base[i][a] + g_base[i][b]
        assert g_new[i][b] == g_base[i][a] + g_base[i][b]
        assert g_new[a][i] == g_base[a][i] + g_base[b][i]
        assert g_new[b][i] == g_base[a][i] + g_base[b][i]
    assert g_new[a][b] == g_base[a][b] + g_base[b][a]
    assert g_new[b][a] == g_base[a][b] + g_base[b][a]


def test_transformed_redundancy_is_minimum(single_round, two_rounds):
    assert redundancy(single_round.as_irregular_code()) == 16
    assert bounds(4, 2, [4] * 4).min_redundancy == 16
    assert redundancy(two_rounds.as_irregular_code()) == 32
    assert bounds(4, 2, [8] * 4).min_redundancy == 32
    flat = two_rounds.as_irregular_code()
    _, average = update_bandwidth(flat)
    assert average == bounds(4, 2, [8] * 4).min_update_bandwidth


def test_transformed_codes_stay_mds(single_round, two_rounds):
    assert verify_mds(single_round).is_mds
    assert verify_mds(two_rounds).is_mds


def test_arbitrary_pair_relabeling(base42):
    # Pairing need not target the last two nodes; any pair re-verifies.
    t = pair_transform(base42, (0, 2))
    assert verify_mds(t).is_mds
    grid, average = update_bandwidth(t.as_irregular_code())
    assert average == Fraction(6)
    assert all(grid[i][j] == 2 for i in range(4) for j in range(4) if i != j)
    counts = repair_counts(t)
    assert counts[0] == counts[2] == 12
    assert counts[1] == counts[3] == 16


def test_five_node_transform_mds():
    base = build_mrmub(5, 3, 3)
    t = pair_transform(base, (3, 4))
    assert verify_mds(t).is_mds
    grid, average = update_bandwidth(t.as_irregular_code())
    assert average == bounds(5, 3, [6] * 5).min_update_bandwidth
    for i in range(5):
        for j in range(5):
            if i != j:
                assert grid[i][j] == 2  # 2m/k = 2


def unit_encode_maps(code):
    """Reference column maps: encode every unit data vector, one per symbol."""
    total = sum(code.m)
    maps = [[[0] * total for _ in range(length)] for length in code.col_lens]
    for t in range(total):
        node, off = divmod(t, code.m[0])
        data = [[0] * mi for mi in code.m]
        data[node][off] = 1
        for j, col in enumerate(code.encode(data)):
            for r, v in enumerate(col):
                maps[j][r][t] = v
    return maps


# Rotation pairs for 1-3 rounds, plus descending pairs off the rotation, whose
# halves sit in other base columns than the rotation's.
MAP_CASES = [
    (rotation_pairs(shape[0], rounds), q, shape)
    for shape in [(5, 3, 3), (6, 4, 4)]
    for rounds in [1, 2, 3]
    for q in [8, 25]
] + [
    ([(4, 1), (0, 5), (3, 2)], 9, (6, 4, 4)),
    ([(4, 0), (2, 1)], 27, (5, 3, 3)),
]


@pytest.mark.parametrize(
    "pairs, q, shape",
    MAP_CASES,
    ids=[
        f"{len(pairs)}-{q}" + ("" if shape == (5, 3, 3) else f"-n{shape[0]}")
        + ("" if pairs == rotation_pairs(shape[0], len(pairs))
           else "-pairs" + "-".join(f"{a}{b}" for a, b in pairs))
        for pairs, q, shape in MAP_CASES
    ],
)
def test_composed_column_maps_match_unit_encodes(pairs, q, shape):
    code = build_mrmub(*shape, field=GF(q))
    for pair in pairs:
        code = TransformedCode(code, pair)
    assert [list(map(list, m.data)) for m in code.column_maps()] == unit_encode_maps(code)


@st.composite
def encoder_cases(draw):
    """(code, data): iterate_transform(build_mrmub(n, n-2, m), r) for n = 4..7
    (at most q + 1) and 0 <= r <= ceil(n/2), with m = (n-2) * share over a
    field holding the (n-1) * share assembly points; the root is built or,
    with the whole code, saved and loaded back through a spec file.  GF(4),
    GF(8), GF(16) and GF(256) encode on packed byte rows, GF(9) and GF(25)
    on entry lists."""
    q = draw(st.sampled_from([4, 8, 9, 16, 25, 256]))
    n = draw(st.integers(4, min(7, q + 1)))
    share = draw(st.integers(1, min(2, q // (n - 1))))
    code = iterate_transform(build_mrmub(n, n - 2, (n - 2) * share, field=GF(q)),
                             draw(st.integers(0, (n + 1) // 2)))
    if draw(st.booleans()):
        with tempfile.TemporaryDirectory() as tmp:
            save_spec(code, f"{tmp}/spec.json")
            code = load_spec(f"{tmp}/spec.json")
    rng = random.Random(draw(st.integers(0, 2**16)))
    return code, random_fill(code, rng)


@settings(max_examples=20, deadline=None)
@given(encoder_cases())
def test_batched_encode_matches_column_maps(case):
    # The batched encoder reads the root grid and the pairing table; the
    # column maps read the flat grid built from them, one product per node.
    code, data = case
    x = [v for fill in data for v in fill]
    cols = code.encode(data)
    assert cols == [m.apply(x) for m in code.column_maps()]


@pytest.mark.parametrize("q", [8, 9, 257, 2**16])
def test_a_tuple_fill_encodes_like_a_list_fill(q):
    # A fill may give each node's vector as a tuple; the batched encoder
    # turns it into its own row form (packed bytes in GF(8), entry lists in
    # the others, whose entries need not fit in a byte) before any mix.
    code = iterate_transform(build_mrmub(4, 2, 2, field=GF(q)), 2)
    data = random_fill(code, random.Random(q))
    cols = code.encode(data)
    assert code.encode(tuple(tuple(x) for x in data)) == cols
    assert Cluster(code, data=tuple(tuple(x) for x in data)).columns == cols
    assert cols == [m.apply([v for x in data for v in x]) for m in code.column_maps()]


def per_node_rows(code, j):
    """Node j's (data rows, parity rows), worked out per node: the base rows
    of the base columns its two halves hold, and the sorted complement."""
    if not isinstance(code, TransformedCode):
        return list(code.data_rows(j)), list(code.parity_rows(j))
    alpha = code.base_col_len
    data = [
        h * alpha + r for h, (x, _) in enumerate(code.halves[j])
        for r in per_node_rows(code.base, x)[0]
    ]
    return data, [r for r in range(2 * alpha) if r not in data]


LAYOUT_CASES = [
    (rotation_pairs(shape[0], rounds), q, shape)
    for shape in [(5, 3, 3), (6, 4, 4)]
    for rounds in [1, 2, 3]
    for q in [8, 25]
] + [
    (pairs, 9, shape) for pairs, _, shape in MAP_CASES
    if pairs != rotation_pairs(shape[0], len(pairs))
]


@pytest.mark.parametrize(
    "pairs, q, shape", LAYOUT_CASES,
    ids=[f"n{shape[0]}-q{q}-" + "-".join(f"{a}{b}" for a, b in pairs)
         for pairs, q, shape in LAYOUT_CASES],
)
def test_every_node_shares_the_round_layout(tmp_path, pairs, q, shape):
    code = build_mrmub(*shape, field=GF(q))
    for pair in pairs:
        code = TransformedCode(code, pair)
    for j in range(code.n):
        rows = list(code.data_rows(j)), list(code.parity_rows(j))
        assert rows == (list(code.data_rows(0)), list(code.parity_rows(0)))
        assert rows == per_node_rows(code, j)
    spec = tmp_path / "spec.json"
    save_spec(code, str(spec))
    loaded = load_spec(str(spec))
    assert loaded.pairs == code.pairs == pairs
    assert json.loads(spec.read_text())["transform"]["g"] == code.field.primitive
    data = random_fill(code, random.Random(q))
    assert loaded.encode(data) == code.encode(data)


def saved_and_loaded(code, path):
    save_spec(code, str(path))
    return load_spec(str(path))


# Flat codes built, loaded from a spec and normalized by zero_diagonal, and
# transformed codes of 1-3 rounds, built and loaded.
LAYOUT_CONTRACT_CODES = {
    "built": lambda tmp: build_mub(4, 2, [4, 2, 2, 0]),
    "loaded": lambda tmp: saved_and_loaded(build_mrmub(5, 3, 3), tmp / "spec.json"),
    "zero-diagonal": lambda tmp: zero_diagonal(pair_transform(build_mrmub(4, 2, 2), (2, 3))),
    "r1": lambda tmp: iterate_transform(build_mrmub(6, 4, 4), 1),
    "r2": lambda tmp: iterate_transform(build_mrmub(5, 3, 3, field=GF(25)), 2),
    "r3": lambda tmp: iterate_transform(build_mrmub(6, 4, 4), 3),
    "r2-loaded": lambda tmp: saved_and_loaded(
        iterate_transform(build_mrmub(4, 2, 2, field=GF(9)), 2), tmp / "spec.json"),
}


@pytest.mark.parametrize("make", LAYOUT_CONTRACT_CODES.values(), ids=LAYOUT_CONTRACT_CODES)
def test_row_layout_contract(tmp_path, make):
    # data_rows(j) and parity_rows(j) are disjoint tuples that cover column
    # j: data then parity in a flat code, and in each half of a transformed
    # column the layout of the base column that half holds.  The encode of a
    # fill reads the fill back at the data rows.
    code = make(tmp_path)
    fill = random_fill(code, random.Random(11))
    cols = code.encode(fill)
    for j in range(code.n):
        data, parity = code.data_rows(j), code.parity_rows(j)
        assert type(data) is tuple and type(parity) is tuple
        assert len(data) == code.m[j] and not set(data) & set(parity)
        assert sorted(data + parity) == list(range(code.col_lens[j]))
        assert [cols[j][r] for r in data] == fill[j]
        if not isinstance(code, TransformedCode):
            assert data + parity == tuple(range(code.col_lens[j]))
            continue
        alpha = code.base_col_len
        for h, (x, _) in enumerate(code.halves[j]):
            for rows, base_rows in ((data, code.base.data_rows(x)),
                                    (parity, code.base.parity_rows(x))):
                assert tuple(r - h * alpha for r in rows
                             if h * alpha <= r < (h + 1) * alpha) == base_rows


def test_transformed_decode_all_patterns(single_round):
    rng = random.Random(23)
    n, k = single_round.n, single_round.k
    for _ in range(20):
        data = random_fill(single_round, rng)
        cols = single_round.encode(data)
        for size in range(0, n - k + 1):
            for erased in combinations(range(n), size):
                known = {j: cols[j] for j in range(n) if j not in erased}
                assert single_round.decode_columns(known) == cols


def test_only_the_update_protocol_factors_edges(monkeypatch):
    """The flat grid of every round comes from its base's grid; only the
    outer round's factor grids are built, and only when an update asks.
    Repairs and decodes read the flat grid alone."""
    factored = []
    real = code_model.full_rank_decompose

    def counted(m):
        factored.append(m)
        return real(m)

    monkeypatch.setattr(code_model, "full_rank_decompose", counted)
    code = iterate_transform(build_mrmub(6, 4, 4), 3)
    assert verify_mds(code).is_mds
    cluster = Cluster(code, seed=1)
    for node in range(code.n):
        cluster.fail_and_repair(node)
    known = {j: cluster.columns[j] for j in range(code.n) if j not in (1, 4)}
    assert code.decode_columns(known) == cluster.columns
    assert factored == []
    cluster.apply_update(0, [1] * code.m[0])
    assert code.as_irregular_code().construction is code.construction
    assert len(factored) == 30  # one factorization per edge of the outer round


def test_updates_and_repairs_build_no_flat_code(monkeypatch):
    """A transformed code runs the update protocol on its own flat grid:
    no ``IrregularArrayCode`` is built once the code exists."""
    code = iterate_transform(build_mrmub(6, 4, 4), 3)
    built = []
    real = code_model.IrregularArrayCode.__init__

    def counted(self, *args):
        built.append(self)
        real(self, *args)

    monkeypatch.setattr(code_model.IrregularArrayCode, "__init__", counted)
    cluster = Cluster(code, seed=2)
    rng = random.Random(2)
    for node in range(code.n):
        cluster.apply_update(node, [rng.randrange(code.field.q) for _ in range(code.m[node])])
        cluster.fail_and_repair(node)
    assert cluster.audit().ok
    assert built == []


def test_flattened_diagonal_normalizes(single_round):
    flat = single_round.as_irregular_code()
    a, b = single_round.pair
    # the pair nodes' own data feeds their stored parity rows
    assert not flat.construction[a][a].is_zero()
    normalized = zero_diagonal(flat)
    assert all(normalized.construction[i][i].is_zero() for i in range(4))
    assert update_bandwidth(flat)[1] == update_bandwidth(normalized)[1]


# -- repair ------------------------------------------------------------------------


def repair_counts(code, seed=3):
    cluster = Cluster(code, seed=seed)
    return [cluster.fail_and_repair(node).total() for node in range(code.n)]


# Every node's sorted (source, row) repair reads: per-source counts in clear
# and a digest of the rows.  They were recorded from the hand-coded pair
# mixing the pairing table replaced, so a table edit that moves one read
# fails here.  The reads do not depend on the field.
PINNED_READS = {
    ((6, 4, 4), 1): [
        ([0, 12, 12, 12, 6, 6], "f84282e7768f4f5a"),
        ([12, 0, 12, 12, 6, 6], "73faa26ba5e74a24"),
        ([12, 12, 0, 12, 6, 6], "abb446704741cc36"),
        ([12, 12, 12, 0, 6, 6], "95f688ee411f9597"),
        ([6, 6, 6, 6, 0, 6], "b9e372265373c80d"),
        ([6, 6, 6, 6, 6, 0], "69dd4b01a07e372c"),
    ],
    ((6, 4, 4), 2): [
        ([0, 24, 24, 24, 12, 12], "8eb7f5cd20e106df"),
        ([24, 0, 24, 24, 12, 12], "e5776ed668b4c901"),
        ([12, 12, 0, 12, 12, 12], "3b35e4847d41809c"),
        ([12, 12, 12, 0, 12, 12], "e3f2056390b01279"),
        ([12, 12, 12, 12, 0, 12], "17e05c6b8bffc108"),
        ([12, 12, 12, 12, 12, 0], "2669778de0677400"),
    ],
    ((6, 4, 4), 3): [
        ([0, 24, 24, 24, 24, 24], "2b43bc04e6400b65"),
        ([24, 0, 24, 24, 24, 24], "85e62a1dc15eaa39"),
        ([24, 24, 0, 24, 24, 24], "b9770afef6ddfda0"),
        ([24, 24, 24, 0, 24, 24], "8416055069a7faa6"),
        ([24, 24, 24, 24, 0, 24], "025c4599741035b0"),
        ([24, 24, 24, 24, 24, 0], "813c80c4af8f1cd6"),
    ],
    ((5, 3, 3), 3): [
        ([0, 20, 20, 20, 20], "50bb6759e1bc7b45"),
        ([20, 0, 20, 20, 20], "eab983ae17142b79"),
        ([20, 20, 0, 20, 20], "f80e52a233ecc642"),
        ([20, 20, 20, 0, 20], "6cbca04873149c40"),
        ([20, 20, 20, 20, 0], "5dde1e8f8a941001"),
    ],
}


def repair_reads(code, node):
    """Sorted (source, row) pairs one repair of node reads, duplicates once."""
    cols = code.encode(random_fill(code, random.Random(node)))
    seen = set()

    def fetch(src, rows):
        seen.update((src, r) for r in rows)
        return [cols[src][r] for r in rows]

    assert code.repair(node, fetch) == cols[node]
    return sorted(seen)


READ_CASES = [
    (shape, q, rounds)
    for q in (8, 9, 25, 27)
    for shape, rounds in [((6, 4, 4), 1), ((6, 4, 4), 2), ((6, 4, 4), 3), ((5, 3, 3), 3)]
]


@pytest.mark.parametrize(
    "shape, q, rounds", READ_CASES, ids=[f"n{s[0]}-q{q}-r{r}" for s, q, r in READ_CASES]
)
def test_repair_reads_are_pinned(shape, q, rounds):
    code = iterate_transform(build_mrmub(*shape, field=GF(q)), rounds)
    for node, (counts, digest) in enumerate(PINNED_READS[shape, rounds]):
        reads = repair_reads(code, node)
        assert [sum(1 for s, _ in reads if s == src) for src in range(code.n)] == counts
        assert hashlib.sha256(repr(reads).encode()).hexdigest()[:16] == digest


def test_each_fetched_symbol_is_validated_once(monkeypatch):
    # repair checks what its fetch returns once; the rounds and the root
    # decoder run on the checked symbols.  The fetch is asked for each
    # (source, row) once per repair: 6 x 120 symbols.
    code = iterate_transform(build_mrmub(6, 4, 4), 3)
    cols = code.encode(random_fill(code, random.Random(0)))
    validate, calls, returned = Field.validate, [0], [0]

    def counted(self, a):
        calls[0] += 1
        return validate(self, a)

    def fetch(src, rows):
        values = [cols[src][r] for r in rows]
        returned[0] += len(values)
        return values

    monkeypatch.setattr(Field, "validate", counted)
    for node in range(code.n):
        assert code.repair(node, fetch) == cols[node]
    assert calls[0] == returned[0] == 720


PLAIN_FETCH_CASES = [
    (lambda: iterate_transform(build_mrmub(6, 4, 4), 3), 120),  # GF(8)
    (lambda: iterate_transform(build_mrmub(4, 2, 2, field=GF(8)), 2), 24),
]


@pytest.mark.parametrize("make, want", PLAIN_FETCH_CASES, ids=["three-rounds", "two-rounds"])
def test_plain_fetch_is_asked_for_the_cut_set_figure(make, want):
    # repair downloads each (source, row) once, so a fetch that keeps
    # nothing is asked for (n-1) * alpha / (n-k) symbols on every node.
    code = make()
    cols = code.encode(random_fill(code, random.Random(1)))
    for node in range(code.n):
        asked = []

        def fetch(src, rows):
            asked.extend((src, r) for r in rows)
            return [cols[src][r] for r in rows]

        assert code.repair(node, fetch) == cols[node]
        assert len(asked) == len(set(asked)) == want, node


def test_single_round_repair_counts(single_round):
    counts = repair_counts(single_round)
    a, b = single_round.pair
    alpha2 = single_round.col_lens[0]
    optimal = (single_round.n - 1) * alpha2 // (single_round.n - single_round.k)
    assert counts[a] == counts[b] == optimal == 12
    for j in range(4):
        if j not in (a, b):
            assert counts[j] == 2 * single_round.k * single_round.base_col_len == 16


def test_two_round_repair_all_nodes_optimal(two_rounds):
    counts = repair_counts(two_rounds)
    alpha = two_rounds.col_lens[0]
    optimal = (two_rounds.n - 1) * alpha // (two_rounds.n - two_rounds.k)
    assert counts == [optimal] * 4
    assert optimal == 24


def test_five_node_single_round_repair():
    base = build_mrmub(5, 3, 3)
    t = pair_transform(base, (3, 4))
    counts = repair_counts(t)
    alpha2 = t.col_lens[0]
    optimal = (5 - 1) * alpha2 // 2
    assert counts[3] == counts[4] == optimal == 20
    for j in (0, 1, 2):
        assert counts[j] == 2 * 3 * base.col_lens[0] == 30


# Largest per-node data count (k * m/k * 2^rounds) the sweep draws; it keeps
# the whole sweep to a few seconds.
SWEEP_NODE_DATA = 48


@st.composite
def transformed_shapes(draw):
    """(n, q, m/k, rounds): a (n, n-2) base with m a multiple of k over a
    field with the (n-1) * m/k assembly points it needs, and 0..ceil(n/2)
    pairing rounds, capped by SWEEP_NODE_DATA."""
    n = draw(st.integers(4, 7))
    q = draw(st.sampled_from([8, 9, 16, 25]))
    share = draw(st.integers(1, min(2, q // (n - 1))))
    most = max(r for r in range((n + 1) // 2 + 1) if (n - 2) * share << r <= SWEEP_NODE_DATA)
    return n, q, share, draw(st.integers(0, most))


@settings(max_examples=25, deadline=None)
@given(transformed_shapes(), st.integers(0, 2**16))
def test_transformed_codes_property_sweep(shape, seed):
    # Every decode of up to n-k erasures runs twice on a fresh code: cold,
    # then from the cached elimination.  Every repair is bitwise (the cluster
    # raises otherwise) at (n-1) * alpha / 2 symbols for a node paired in any
    # round and k full columns for a node paired in none.
    n, q, share, rounds = shape
    k = n - 2
    code = iterate_transform(build_mrmub(n, k, k * share, field=GF(q)), rounds)
    cluster = Cluster(code, seed=seed)
    cols = [list(col) for col in cluster.columns]
    for size in range(n - k + 1):
        for erased in combinations(range(n), size):
            known = {j: cols[j] for j in range(n) if j not in erased}
            assert code.decode_columns(known) == cols, erased
            assert code.decode_columns(known) == cols, erased
    alpha = code.col_lens[0]
    paired = {j for pair in getattr(code, "pairs", []) for j in pair}
    for node in range(n):
        want = (n - 1) * alpha // 2 if node in paired else k * alpha
        assert cluster.fail_and_repair(node).total() == want, node
    assert cluster.audit().ok


@settings(max_examples=20, deadline=None)
@given(transformed_shapes())
def test_transformed_specs_round_trip_and_verify(shape):
    # save_spec -> load_spec -> save_spec writes the same bytes, and
    # `ubcode verify --json` on the spec reports every check ok.
    n, q, share, rounds = shape
    code = iterate_transform(build_mrmub(n, n - 2, (n - 2) * share, field=GF(q)), rounds)
    with tempfile.TemporaryDirectory() as tmp:
        first, second = f"{tmp}/first.json", f"{tmp}/second.json"
        save_spec(code, first)
        save_spec(load_spec(first), second)
        with open(first, "rb") as a, open(second, "rb") as b:
            assert a.read() == b.read()
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            status = run(["verify", first, "--json"])
    report = json.loads(out.getvalue())
    assert status == 0 and all(check["ok"] for check in report["checks"]), report


def test_five_node_full_iteration_repair():
    base = build_mrmub(5, 3, 3)
    t = iterate_transform(base, 3)
    assert t.pairs == [(3, 4), (1, 2), (0, 1)]
    counts = repair_counts(t)
    alpha = t.col_lens[0]
    optimal = (5 - 1) * alpha // 2
    assert counts == [optimal] * 5


# -- update ---------------------------------------------------------------------------


def test_transformed_update_counts_and_state(single_round):
    cluster = Cluster(single_round, seed=41)
    rng = random.Random(8)
    q = single_round.field.q
    for node in range(4):
        fresh = [rng.randrange(q) for _ in range(single_round.m[node])]
        log = cluster.apply_update(node, fresh)
        per_edge = {(r.src, r.dst): r.count for r in log.records}
        assert all(c == 2 for c in per_edge.values())
        assert log.total() == 6
    assert cluster.audit().ok


def test_paired_node_update_equals_reencode(single_round):
    # Updating a paired node exercises the mixed-correction path; the cluster
    # asserts column state equals a fresh encode after every update.
    cluster = Cluster(single_round, seed=5)
    a, b = single_round.pair
    rng = random.Random(6)
    q = single_round.field.q
    for node in (a, b, a):
        fresh = [rng.randrange(q) for _ in range(single_round.m[node])]
        cluster.apply_update(node, fresh)
    assert cluster.audit().ok


def test_iterated_update_counts(two_rounds):
    cluster = Cluster(two_rounds, seed=2)
    rng = random.Random(3)
    q = two_rounds.field.q
    for node in range(4):
        fresh = [rng.randrange(q) for _ in range(two_rounds.m[node])]
        log = cluster.apply_update(node, fresh)
        per_edge = {(r.src, r.dst): r.count for r in log.records}
        assert all(c == 4 for c in per_edge.values())  # 2m'/k with m' = 2m
        assert log.total() == 12
    assert cluster.audit().ok

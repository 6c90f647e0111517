"""An independent oracle for the closed forms of ``bounds``.

Each optimum is searched by brute force over integer bandwidth grids g
(g[i][j] symbols shipped from node i to node j per update of i) and parity
profiles p, with ``feasible`` (access and capacity over every erased set) as
the one constraint:

- the minimum update bandwidth: with parity to spare, capacity follows
  from access, and access constrains each row on its own (every k of the
  n-1 off-diagonal entries of row i sum to at least m_i), so the least grid
  total is the sum of the least row totals;
- the minimum redundancy: g[i][j] = m_i on every edge, so bandwidth never
  binds and only the parity profile is searched;
- the smallest redundancy at minimum bandwidth: the least parity over every
  grid whose rows all have least total.

The search bounds are exact, not narrowed: an entry of g above m_i, or a
p_j above the most that any erased set can push into node j, only adds to a
total and never passes a check that a smaller value fails.  Where ``bounds``
leaves the third optimum open, ``feasible`` is only a necessary condition,
so the oracle's value there is a lower bound on it.
"""

from fractions import Fraction
from itertools import combinations, product
from math import comb

from hypothesis import given, settings
from hypothesis import strategies as st

from ubcode.code_model import bounds, feasible


def least_rows(n, k, m, i):
    """Every row i of least total with which feasible's access check passes,
    the other rows shipping m_t on every edge and parity to spare."""
    others = [j for j in range(n) if j != i]
    spare = [sum(m)] * n
    rows, least = [], None
    for entries in product(range(m[i] + 1), repeat=n - 1):
        total = sum(entries)
        if least is not None and total > least:
            continue
        row = [0] * n
        for j, v in zip(others, entries):
            row[j] = v
        grid = [row if t == i else [0 if j == t else m[t] for j in range(n)] for t in range(n)]
        if feasible(n, k, m, spare, grid).feasible:
            if least is None or total < least:
                rows, least = [], total
            rows.append(row)
    return rows


def profiles(total, caps):
    """Every parity profile with sum ``total`` and p_j in 0..caps[j]."""
    if not caps:
        if total == 0:
            yield ()
        return
    for v in range(max(0, total - sum(caps[1:])), min(caps[0], total) + 1):
        for rest in profiles(total - v, caps[1:]):
            yield (v, *rest)


def least_parity(n, k, m, grid, below=None):
    """The least sum(p) with which feasible passes on ``grid``, or None when
    no profile below ``below`` does.

    The totals are tried upward from a bound that every passing profile
    meets: the survivors of an erased set E hold at least E's data, and
    summed over all sets each p_j counts once per set that spares j."""
    erased_sets = list(combinations(range(n), n - k))
    caps = [max(sum(grid[i][j] for i in erased) for erased in erased_sets if j not in erased)
            for j in range(n)]
    need = sum(m[i] for erased in erased_sets for i in erased)
    spared = comb(n - 1, n - k)
    top = sum(caps) if below is None else min(sum(caps), below - 1)
    for total in range(-(-need // spared), top + 1):
        if any(feasible(n, k, m, list(p), grid).feasible for p in profiles(total, caps)):
            return total
    return None


def min_update_bandwidth(n, k, m):
    return Fraction(sum(sum(least_rows(n, k, m, i)[0]) for i in range(n)), n)


def min_redundancy(n, k, m):
    grid = [[0 if i == j else m[i] for j in range(n)] for i in range(n)]
    return least_parity(n, k, m, grid)


def min_redundancy_at_min_bandwidth(n, k, m):
    best = None
    for grid in product(*(least_rows(n, k, m, i) for i in range(n))):
        found = least_parity(n, k, m, list(grid), best)
        if found is not None:
            best = found
    return best


SMALL_CASES = [
    (n, k, m)
    for n in (2, 3, 4)
    for k in range(1, n)
    for m in product(range(3), repeat=n)
    if any(m)
]


def test_closed_forms_match_the_brute_force_optima():
    # Every (n, k, m) with n <= 4 and m_i <= 2.  Where bounds leaves the
    # third optimum open, the oracle's lower bound still cannot undercut the
    # minimum redundancy, which any grid's parity must reach.
    for n, k, m in SMALL_CASES:
        rep = bounds(n, k, m)
        assert rep.min_update_bandwidth == min_update_bandwidth(n, k, m), (n, k, m)
        assert rep.min_redundancy == min_redundancy(n, k, m), (n, k, m)
        found = min_redundancy_at_min_bandwidth(n, k, m)
        if rep.min_redundancy_at_min_bandwidth is None:
            assert found >= rep.min_redundancy, (n, k, m)
        else:
            assert rep.min_redundancy_at_min_bandwidth == found, (n, k, m)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_cheap_closed_forms_match_at_five_nodes(data):
    n = 5
    k = data.draw(st.integers(1, n - 1))
    m = data.draw(st.lists(st.integers(0, 3), min_size=n, max_size=n).filter(any))
    rep = bounds(n, k, m)
    assert rep.min_update_bandwidth == min_update_bandwidth(n, k, m)
    assert rep.min_redundancy == min_redundancy(n, k, m)

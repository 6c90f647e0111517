import random

import pytest

from ubcode.finite_field import GF
from ubcode.construct import build_mrmub, build_mub, fig1b, fig3

# Small construction instances used across suites; every erasure pattern of
# these is brute-forced, so keep them desk-sized.
MRMUB_INSTANCES = [
    (3, 2, 2),
    (4, 1, 2),
    (4, 2, 2),
    (4, 3, 3),
    (5, 2, 2),
    (5, 3, 3),
    (5, 4, 4),
    (6, 3, 3),
    (6, 4, 4),
    (6, 5, 5),
]

MUB_INSTANCES = [
    (4, 2, [4, 2, 2, 0]),
    (4, 2, [2, 2, 2, 0]),
    (5, 3, [6, 3, 3, 0, 0]),
    (6, 2, [4, 2, 2, 0, 2, 2]),
    (6, 3, [6, 3, 3, 0, 3, 0]),
]


@pytest.fixture(scope="session")
def fig1b_code():
    return fig1b()


@pytest.fixture(scope="session")
def fig3_code():
    return fig3()


@pytest.fixture(scope="session")
def mrmub_codes():
    return [(n, k, m, build_mrmub(n, k, m)) for n, k, m in MRMUB_INSTANCES]


@pytest.fixture(scope="session")
def mub_codes():
    return [(n, k, m, build_mub(n, k, m)) for n, k, m in MUB_INSTANCES]


def random_fill(code, rng: random.Random):
    return [[rng.randrange(code.field.q) for _ in range(mi)] for mi in code.m]


def grid_encode(code, data):
    """Reference codeword, one scalar step per grid entry: parity_j is the sum
    over i of ``construction[i][j]`` times x_i, placed at ``parity_rows(j)``
    beside x_j at ``data_rows(j)``.  It reads neither the codec's parity
    columns nor the column maps, and combines no rows."""
    f = code.field
    cols = []
    for j in range(code.n):
        parity = [0] * code.p[j]
        for x, edges in zip(data, code.construction):
            for t, row in enumerate(edges[j].data):
                for a, v in zip(row, x):
                    parity[t] = f.add(parity[t], f.mul(a, v))
        col = [None] * code.col_lens[j]
        for rows, values in ((code.data_rows(j), data[j]), (code.parity_rows(j), parity)):
            for r, v in zip(rows, values):
                col[r] = v
        cols.append(col)
    return cols


@pytest.fixture
def rng():
    return random.Random(20240817)


@pytest.fixture(scope="session")
def gf2():
    return GF(2)


@pytest.fixture(scope="session")
def gf4():
    return GF(4)

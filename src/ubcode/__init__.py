"""Irregular array codes with minimum update bandwidth.

Library layout:

- ``finite_field``: GF(q) arithmetic (prime and prime-power fields)
- ``linalg``: dense exact matrix algebra over GF(q)
- ``code_model``: code abstraction, erasure decoding, metrics, closed-form
  bounds, verification
- ``construct``: explicit builders and worked-example fixtures
- ``transform``: node-size-doubling transformation with optimal repair
- ``cluster``: deterministic simulated cluster with symbol accounting
- ``cli``: the ``ubcode`` command-line tool
"""

from .finite_field import GF, Field
from .linalg import Matrix
from .code_model import (
    BoundsReport,
    IrregularArrayCode,
    bounds,
    feasible,
    redundancy,
    update_bandwidth,
    update_complexity,
    verify_mds,
    zero_diagonal,
)
from .construct import BuiltCode, build_mrmub, build_mub, fig1b, fig3
from .transform import TransformedCode, iterate_transform, pair_transform
from .cluster import Cluster, TransferLog

__version__ = "0.1.0"

__all__ = [
    "GF",
    "Field",
    "Matrix",
    "BoundsReport",
    "IrregularArrayCode",
    "bounds",
    "feasible",
    "redundancy",
    "update_bandwidth",
    "update_complexity",
    "verify_mds",
    "zero_diagonal",
    "BuiltCode",
    "build_mrmub",
    "build_mub",
    "fig1b",
    "fig3",
    "TransformedCode",
    "iterate_transform",
    "pair_transform",
    "Cluster",
    "TransferLog",
    "__version__",
]

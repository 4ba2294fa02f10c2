"""Exact-arithmetic cones, completed Hecke series, intertwining operators, and a rank-one global model over the projective line."""

__version__ = "0.1.0"

from .qfield import ONE, Q, RatFunc, ZERO, q_pow  # noqa: F401
from .rootdata import ParabolicType, RootDatum, load_root_datum  # noqa: F401

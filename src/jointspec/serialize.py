"""JSON helpers: complex scalars as [re, im], matrices as nested lists."""

import numpy as np

SCHEMA_VERSION = 1


def complex_to_pair(z):
    z = complex(z)
    return [z.real, z.imag]


def pair_to_complex(p):
    if isinstance(p, (int, float)):
        return complex(p)
    re, im = p
    return complex(re, im)


def matrix_to_json(m):
    m = np.asarray(m, dtype=complex)
    return [[complex_to_pair(v) for v in row] for row in m]


def json_to_matrix(rows):
    return np.array([[pair_to_complex(v) for v in row] for row in rows], dtype=complex)


"""Test-only reference implementations that the library no longer uses.

Each one computes the same result as a library function by a slower,
more direct route, so the tests can compare the two entrywise.
"""

from __future__ import annotations

import triadtet as tt
from triadtet import RMatrix


def solve_b_reference(cert: tt.TriadCertificate) -> RMatrix:
    """B solved from [A'', B] = 2A'' - 2B and [B, A'] = 2B + 2A' directly.

    All n^2 entries of B are unknowns of one linear system.  Its
    homogeneous part is zero on every thin reduced triad (the uniqueness
    proof in `triadtet.synthesis`), so a nonempty one is an error.
    """
    _, ap_mat, app_mat = cert.matrices
    particular, homogeneous = tt.solve_linear_matrix_system(
        cert.dimension,
        [
            (lambda b: tt.commutator(app_mat, b) + 2 * b, 2 * app_mat),
            (lambda b: tt.commutator(b, ap_mat) - 2 * b, 2 * ap_mat),
        ],
    )
    if homogeneous:
        raise AssertionError(
            f"bracket constraints on B left a {len(homogeneous)}-dimensional "
            "homogeneous solution space"
        )
    return particular

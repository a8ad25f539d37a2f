"""Operation-coverage bookkeeping for the verification suites.

Every public operation of the algebra modules records its name here the
first time it runs.  A self-test asserts that one full verification run
touches all of them, so no suite silently stops exercising an operation.
"""

from __future__ import annotations

TRACKED_OPS = frozenset(
    {
        "multipoly.ring_ops",
        "multipoly.substitute",
        "multipoly.symmetrize",
        "multipoly.elementary_symmetric",
        "multipoly.discriminant",
        "multipoly.p2p3p4",
        "multipoly.q_poly",
        "multipoly.divide_exact",
        "asymptotics.substitute_regime",
        "asymptotics.leading_term",
        "asymptotics.verify_q_asymptotics",
        "diagram_spaces.y_from_x",
        "diagram_spaces.x_from_y",
        "diagram_spaces.tet_slice",
        "diagram_spaces.odd_target_dim",
        "diagram_spaces.ihx_image_slice",
        "diagram_spaces.subring_family_slice",
        "diagram_spaces.tsq_odd_dim",
        "diagram_spaces.even_closed_form",
        "diagram_spaces.hilbert_coefficients",
    }
)

_touched: set[str] = set()


def touch(name: str) -> None:
    _touched.add(name)


def reset() -> None:
    _touched.clear()


def untouched() -> frozenset[str]:
    return TRACKED_OPS - _touched

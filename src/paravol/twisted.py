"""Local index data for the supported non-split (ramified quasi-split) forms.

Two indices are built in, the rank-1 and rank-2 residually split forms of
ramified special unitary groups:

  C-BC1: SU_3 over a ramified quadratic extension.  Relative affine root
  system of type BC_1 (twisted affine A_2^(2)): two vertices joined by a
  quadruple edge, arrow toward the short vertex, marks 1 and 2.

  C-B2: SU_4 over a ramified quadratic extension (twisted affine A_3^(2)):
  a path short-long-short with two double edges, arrows pointing outward,
  all marks 1.

Neither diagram has a hyperspecial vertex.  As for the split forms, each
parahoric's reductive quotient is read off the induced subdiagram.  The
audited residue tables (component labels and central torus rank for each
proper type) are kept in `tests/test_reductive.py` as an oracle for that
reading.
"""

TWISTED_INDICES = {
    "C-BC1": {
        "absolute": ("A", 2),
        "vertex_count": 2,
        "edges": ((0, 1, 4, 1),),
        "marks": (1, 2),
    },
    "C-B2": {
        "absolute": ("A", 3),
        "vertex_count": 3,
        "edges": ((0, 1, 2, 0), (1, 2, 2, 2)),
        "marks": (1, 1, 1),
    },
}

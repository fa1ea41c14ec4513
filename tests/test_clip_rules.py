"""One clip rule per subdomain shape: the plan's ``whole`` against the builders.

Centres, box faces and disk or ball rims are put a few tolerances either side
of every bound plane and curve of the benchmark domains.  ``plan_subdomains``
must call a subdomain whole exactly when ``build_subdomain`` clips nothing.
"""

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from dmlpg import assembly as asm
from dmlpg import geometry as geo

DOMAINS = {
    "beam": geo.BeamDomain(8.0, 1.0),
    "plate": geo.PlateQuadrant(2.0, 8.0),
    "box3d": geo.BoxDomain((1.0, 0.5, 0.5)),
    "shell": geo.SphereOctantShell(1.0, 4.0),
}
OFFSETS = [0.0] + [s * k for k in (0.5, 1.0, 1.5, 2.0, 3.0) for s in (1.0, -1.0)]


def _features(geometry):
    planes = [("plane", axis, side) for axis in range(geometry.dim) for side in (-1, 1)]
    return planes + [("curve", i, 0) for i in range(len(geometry.curves()))]


@st.composite
def placements(draw):
    """(geometry, config, centre, spacing) with one feature a few tolerances away."""
    geometry = DOMAINS[draw(st.sampled_from(sorted(DOMAINS)))]
    d = geometry.dim
    shape = draw(st.sampled_from(["box", "ball"]))
    config = asm.SolverConfig(shape=shape)
    spacing = draw(st.sampled_from([0.05, 0.1, 0.125, 0.3, 1.6]))
    kind, which, side = draw(st.sampled_from(_features(geometry)))
    rim = draw(st.booleans())           # place the face or rim, else the centre
    k = draw(st.sampled_from(OFFSETS))
    span = geometry.bounds_hi - geometry.bounds_lo
    unit = np.array([draw(st.floats(0.2, 0.8)) for _ in range(d)])
    centre = geometry.bounds_lo + unit * span
    if shape == "box":
        reach = 0.5 * config.box_factor * spacing
        tol = 1e-12 * config.box_factor * spacing if kind == "plane" else 1e-12
    else:
        reach = config.ball_factor * spacing
        tol = 1e-12 * max(reach, 1.0)
    gap = k * tol + (reach if rim else 0.0)
    if kind == "plane":
        bound = geometry.bounds_lo if side < 0 else geometry.bounds_hi
        centre[which] = bound[which] - side * gap
    else:
        _, ccenter, radius, keep = geometry.curves()[which]
        direction = unit / np.linalg.norm(unit)
        if shape == "box" and rim:      # the box's nearest point or farthest corner
            corner = ccenter + direction * (radius + k * tol if keep == "outside"
                                            else radius - k * tol)
            centre = corner + (reach if keep == "outside" else -reach)
        else:
            centre = ccenter + direction * (radius + gap if keep == "outside"
                                            else radius - gap)
    return geometry, config, centre, spacing


@settings(max_examples=400, deadline=None, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(placements())
def test_plan_whole_matches_the_builders(placement):
    geometry, config, centre, spacing = placement
    plan = asm.plan_subdomains(centre[None], np.array([spacing]), geometry, config)
    shape, size = str(plan.shape[0]), float(plan.size[0])
    try:
        sub = geo.build_subdomain(centre, shape, size, geometry)
    except geo.UnsupportedClipError:
        assert not plan.whole[0]
        return
    clipped = any(piece.on_gamma for piece in sub.pieces) or sub.curved_clip
    assert plan.whole[0] == (not clipped)
    if shape == "box":
        assert [p.on_gamma for p in sub.pieces] == plan.faces[0].T.ravel().tolist()
        if plan.whole[0]:
            # each face rule fixes its coordinate to exactly lo or hi
            fixed = [piece.rule(1).points[0] - centre for piece in sub.pieces]
            lo, hi = (np.stack([plan.lo[0], plan.hi[0]]) - centre).tolist()
            assert [f[axis] for axis, f in enumerate(fixed[0::2])] == lo
            assert [f[axis] for axis, f in enumerate(fixed[1::2])] == hi
            assert all(piece.traction_known is None for piece in sub.pieces)
    else:
        # the plane clips are the on-boundary plane pieces, by outward normal
        planes = {(int(np.argmax(np.abs(n))), int(n[np.argmax(np.abs(n))]))
                  for n in (piece.rule(1).normals[0] for piece in sub.pieces
                            if piece.on_gamma and piece.kind != "arc")}
        sides, axes = np.nonzero(plan.faces[0])
        assert planes == {(int(a), 2 * int(s) - 1) for s, a in zip(sides, axes)}

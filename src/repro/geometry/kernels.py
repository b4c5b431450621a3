"""Flat-array geometry kernels for the simulator's hot loops.

The scalar geometry API (:class:`~repro.geometry.point.Point`,
:func:`~repro.geometry.voronoi.closest_site_index`,
:func:`~repro.geometry.detour.segment_distance_to_point`, ...) is the
readable reference; these kernels are the throughput layer.  Each one
takes parallel coordinate lists (``xs[i], ys[i]`` is point *i*) and
processes a whole batch in one object-free pass: no ``Point``
allocation, no attribute loads, no per-element method calls.

**Exact-float-order invariant.**  Every kernel replicates the float-op
sequence of the scalar reference named in its docstring *op for op* —
the same subtractions, the same multiply/add order, the same
``math.hypot`` calls — so batch results are **bit-identical** to the
scalar loops they replace, and the pinned trace-hash baselines
(``tests/baselines/``) stay unchanged.  Two algebraic identities are
relied on (both exact in IEEE-754): ``(-x) * (-x) == x * x`` (negation
only flips the sign bit) and ``hypot(a, b) == hypot(-a, -b)``, so
``dx = px - x`` versus ``dx = x - px`` are interchangeable *under a
square or a hypot* and nowhere else.  The property suite in
``tests/property/test_kernel_equivalence.py`` asserts exact (``==``,
not approximate) agreement with the scalar references on random
inputs.

Design notes live in ``docs/PERFORMANCE.md`` ("Flat-array geometry
kernels").
"""

from __future__ import annotations

import typing

from math import hypot as _hypot

__all__ = [
    "nearest_site_indices",
    "in_disk_mask",
    "collect_entries_within_radius",
    "distances_to_point",
    "segment_distances_to_points",
]

#: Parallel coordinate arrays — plain lists of floats.  Tuples also
#: work; anything indexable and zippable does.
Floats = typing.Sequence[float]


def nearest_site_indices(
    xs: Floats, ys: Floats, site_xs: Floats, site_ys: Floats
) -> typing.List[int]:
    """Voronoi membership for N points × M sites in one pass.

    ``result[i]`` is the index of the site nearest to point *i*, first
    site winning exact ties — element-wise identical to calling
    :func:`repro.geometry.voronoi.closest_site_index` per point.

    Raises
    ------
    ValueError
        If the site arrays are empty (only checked when there are
        points to classify).
    """
    if xs and not site_xs:
        raise ValueError("nearest site of an empty site set")
    site_count = len(site_xs)
    first_x = site_xs[0] if site_xs else 0.0
    first_y = site_ys[0] if site_ys else 0.0
    site_range = range(1, site_count)
    result: typing.List[int] = []
    append = result.append
    for px, py in zip(xs, ys):
        dx = px - first_x
        dy = py - first_y
        best_index = 0
        best_distance = dx * dx + dy * dy
        for i in site_range:
            dx = px - site_xs[i]
            dy = py - site_ys[i]
            distance = dx * dx + dy * dy
            if distance < best_distance:
                best_distance = distance
                best_index = i
        append(best_index)
    return result


def in_disk_mask(
    xs: Floats, ys: Floats, cx: float, cy: float, radius: float
) -> typing.List[bool]:
    """Boundary-inclusive disk membership for a batch of points.

    ``result[i]`` is ``True`` iff point *i* lies within *radius* of
    ``(cx, cy)``.  Scalar reference:
    :meth:`repro.faults.network.FaultRegion.covers` — ``dx = x - cx``,
    ``dx*dx + dy*dy <= radius * radius``.
    """
    rr = radius * radius
    return [
        ((dx := x - cx) * dx + (dy := y - cy) * dy) <= rr
        for x, y in zip(xs, ys)
    ]


def collect_entries_within_radius(
    entries: typing.Sequence[typing.Tuple[typing.Any, float, float, typing.Any]],
    cx: float,
    cy: float,
    r2: float,
    out: typing.List[typing.Any],
) -> None:
    """Append ``payload`` to *out* for every entry row inside the disk.

    The fused filter-and-gather behind the spatial grid's range query:
    *entries* are prebuilt ``(key, x, y, payload)`` rows (iterating
    existing tuples is faster than zipping parallel coordinate arrays —
    list iteration allocates nothing per element), *r2* is the
    **squared** radius (hoisted by the caller, computed as
    ``radius * radius``), and the membership test is the exact float
    sequence of :meth:`repro.net.spatial.SpatialGrid.within`
    (``qx = px - cx; qy = py - cy; qx*qx + qy*qy <= r2``).
    """
    append = out.append
    for _key, px, py, item in entries:
        qx = px - cx
        qy = py - cy
        if qx * qx + qy * qy <= r2:
            append(item)


def distances_to_point(
    xs: Floats, ys: Floats, px: float, py: float
) -> typing.List[float]:
    """Euclidean distances from every point to ``(px, py)``.

    Scalar reference: :meth:`repro.geometry.point.Point.distance_to`
    (``math.hypot`` of the coordinate differences; hypot is exact under
    operand negation, so the subtraction direction is immaterial).
    """
    return [_hypot(x - px, y - py) for x, y in zip(xs, ys)]


def segment_distances_to_points(
    ax: float,
    ay: float,
    bx: float,
    by: float,
    xs: Floats,
    ys: Floats,
) -> typing.List[float]:
    """Distance from each point to the closed segment ``(ax,ay)-(bx,by)``.

    Scalar reference:
    :func:`repro.geometry.detour.segment_distance_to_point`, op for op:
    ``length_sq = dx*dx + dy*dy`` (the segment vector's self-dot), the
    projection parameter ``t = ((px-ax)*dx + (py-ay)*dy) / length_sq``
    clamped to ``[0, 1]``, the foot point via the
    :meth:`~repro.geometry.point.Point.lerp` expression
    ``ax + (bx - ax) * t``, and ``math.hypot`` to the foot.
    """
    dx = bx - ax
    dy = by - ay
    length_sq = dx * dx + dy * dy
    if length_sq == 0.0:
        return [_hypot(ax - px, ay - py) for px, py in zip(xs, ys)]
    result: typing.List[float] = []
    append = result.append
    for px, py in zip(xs, ys):
        t = ((px - ax) * dx + (py - ay) * dy) / length_sq
        t = min(1.0, max(0.0, t))
        fx = ax + (bx - ax) * t
        fy = ay + (by - ay) * t
        append(_hypot(fx - px, fy - py))
    return result

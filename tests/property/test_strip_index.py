"""The strip index's range query against a brute-force scan.

``SpatialGrid.within`` takes each strip's sure slice without a distance
test and tests only the two edge slices around it.  Random sequences of
``insert``, ``remove`` and ``move`` are applied to the index and to a
plain dict; after every step, every query must return exactly what a
scan of the dict with the same ``qx*qx + qy*qy <= r2`` float test
returns, sorted by id, with and without an excluded id.  Inserts come
in any id order and may store a value of their own, which queries must
return in place of the ``(id, position)`` pair.  The inputs aim at the
places a chord bound can be off by one node: points on strip edges,
radii around the paper's two ranges, and query centers at exactly
distance ``r`` from a point, on the axes and on 3-4-5 offsets.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.geometry import Point
from repro.net.spatial import SpatialGrid

#: The channel's strip height.
CELL = 80.0
RADII = (0.0, 1e-6, 63.0, 64.0, 250.0, 251.0)

ids = st.sampled_from([f"n{i:02d}" for i in range(10)])
coordinates = st.one_of(
    st.integers(min_value=-200, max_value=900).map(float),
    st.floats(min_value=-200.0, max_value=900.0),
    # Strip edges.
    st.integers(min_value=-3, max_value=11).map(lambda k: k * CELL),
)
points = st.builds(Point, coordinates, coordinates)
operations = st.lists(
    st.one_of(
        st.tuples(st.just("insert"), ids, points, st.booleans()),
        st.tuples(st.just("remove"), ids, st.none(), st.just(False)),
        st.tuples(st.just("move"), ids, points, st.booleans()),
    ),
    min_size=1,
    max_size=25,
)


def ring(radius):
    """Offsets at exactly *radius*: the four axes and 3-4-5 triangles."""
    a = 3 * radius / 5
    b = 4 * radius / 5
    return [
        (radius, 0.0),
        (-radius, 0.0),
        (0.0, radius),
        (0.0, -radius),
        (a, b),
        (-b, a),
        (b, -a),
        (-a, -b),
    ]


def brute_force(model, center, radius, exclude=None, values=None):
    r2 = radius * radius
    hits = []
    for item_id in sorted(model):
        position = model[item_id]
        qx = position.x - center.x
        qy = position.y - center.y
        if item_id != exclude and qx * qx + qy * qy <= r2:
            value = (values or {}).get(item_id)
            hits.append((item_id, position) if value is None else value)
    return hits


def check(grid, model, extra_centers, values=None):
    assert len(grid) == len(model)
    excluded = (None, min(model, default=None), max(model, default=None))
    for radius in RADII:
        centers = list(extra_centers)
        for position in model.values():
            centers.append(position)
            centers.extend(
                Point(position.x + dx, position.y + dy)
                for dx, dy in ring(radius)
            )
        for center in centers:
            for exclude in excluded:
                assert grid.within(center, radius, exclude) == brute_force(
                    model, center, radius, exclude, values
                ), (center, radius, exclude)


class TestStripIndex:
    @settings(max_examples=150, deadline=None)
    @given(operations, st.lists(points, max_size=3))
    def test_within_matches_brute_force(self, sequence, centers):
        grid = SpatialGrid(cell_size=CELL)
        model = {}
        values = {}
        for step, (op, item_id, position, tagged) in enumerate(sequence):
            value = ("value", item_id, step) if tagged else None
            if op == "insert":
                grid.insert(item_id, position, value)
            elif item_id not in model:
                continue
            elif op == "remove":
                grid.remove(item_id)
                del model[item_id]
                del values[item_id]
                check(grid, model, centers, values)
                continue
            else:
                grid.move(item_id, position, value)
            model[item_id] = position
            values[item_id] = value
            check(grid, model, centers, values)

    def test_values_in_id_order_through_renumbering(self):
        grid = SpatialGrid(cell_size=CELL)
        center = Point(100.0, 100.0)
        for item_id in ("n05", "n09", "n01", "n07", "n03"):
            grid.insert(item_id, center, item_id.upper())
        assert grid.within(center, 63.0) == [
            "N01",
            "N03",
            "N05",
            "N07",
            "N09",
        ]
        # A remove and a re-insert of the same id, the largest one
        # among them, and an id below every other.
        grid.remove("n07")
        grid.insert("n07", Point(110.0, 100.0), "N07")
        grid.remove("n09")
        grid.insert("n09", center, "N09")
        grid.insert("n00", Point(100.0, 140.0), "N00")
        everything = ["N00", "N01", "N03", "N05", "N07", "N09"]
        assert grid.within(center, 63.0) == everything
        assert grid.within(center, 63.0, "n05") == [
            "N00",
            "N01",
            "N03",
            "N07",
            "N09",
        ]
        assert grid.within(center, 63.0, "n00") == everything[1:]
        assert grid.within(center, 63.0, "n99") == everything

    def test_dense_field_at_both_ranges(self):
        # A lattice with a point on every strip edge, queried from
        # lattice points and from points exactly r away from them.
        grid = SpatialGrid(cell_size=CELL)
        model = {}
        for i in range(0, 801, 50):
            for j in range(0, 801, 40):
                item_id = f"s{i:03d}-{j:03d}"
                position = Point(float(i), float(j))
                grid.insert(item_id, position)
                model[item_id] = position
        for radius in RADII:
            for cx, cy in ((400.0, 400.0), (400.0, 320.0), (150.0, 640.0)):
                for dx, dy in [(0.0, 0.0)] + ring(radius):
                    center = Point(cx + dx, cy + dy)
                    assert grid.within(center, radius) == brute_force(
                        model, center, radius
                    ), (center, radius)

import pytest

from alttamari import (
    ContractError,
    IncrementVector,
    LatticePath,
    RotationError,
    RotationLeavesRegion,
    ambient_base,
    build_region,
    compatible,
    delta_rotate,
    enumerate_nu_paths,
    increment_box,
    left_flushing,
    right_flushing,
    tree_from_json,
    tree_rotation,
    tree_rotation_down,
    valleys,
)
from alttamari.trees import bottom_tree

from conftest import all_base_paths, all_instances


def walk_region_boundaries(nu, delta):
    """Independent region construction walking both boundary words literally.

    The east boundary comes from the ambient base path read step by step;
    the west boundary from the west/north cut word W^{nu_0} N W^{gamma_1}
    ... N W^{gamma_n} walked from the corner (ambient_0, 0).  A point
    belongs to the region when it sits between the two at its height.
    """
    ambient = ambient_base(delta)
    reach = [0]
    for ch in ambient.word:
        if ch == "N":
            reach.append(reach[-1])
        else:
            reach[-1] += 1
    gammas = [nu.composition[i] - delta.entries[i - 1] for i in range(1, nu.n + 1)]
    cut_word = "W" * nu.composition[0] + "".join("N" + "W" * g for g in gammas)
    x, y = ambient.composition[0], 0
    west = {0: x}
    for ch in cut_word:
        if ch == "N":
            y += 1
        else:
            x -= 1
        west[y] = min(west.get(y, x), x)
    assert (x, y) == (0, nu.n)
    return {
        (px, py)
        for py in range(nu.n + 1)
        for px in range(west[py], reach[py] + 1)
    }


def boxes_by_shape(nu, delta):
    """Corner points of the boxes above the cut, the figure reading."""
    ambient = ambient_base(delta)
    reach = ambient.east_prefixes
    gammas = [nu.composition[i] - delta.entries[i - 1] for i in range(1, nu.n + 1)]
    cut = ambient.composition[0] - nu.composition[0]
    points = set()
    for box_row in range(nu.n):
        west = cut - sum(gammas[:box_row])
        for box_x in range(nu.m):
            if box_x + 1 <= reach[box_row] and box_x >= west:
                points.update(
                    {(box_x, box_row), (box_x + 1, box_row),
                     (box_x, box_row + 1), (box_x + 1, box_row + 1)}
                )
    return points


def test_region_examples(eneen):
    r00 = build_region(IncrementVector((0, 0), eneen))
    assert set(r00.points()) == {(2, 0), (3, 0)} | {(x, 1) for x in range(4)} | {
        (x, 2) for x in range(4)
    }
    r20 = build_region(IncrementVector((2, 0), eneen))
    assert set(r20.points()) == {(0, 0), (1, 0)} | {(x, 1) for x in range(4)} | {
        (x, 2) for x in range(4)
    }
    flat = LatticePath("EEEE")
    r = build_region(IncrementVector((), flat))
    assert r.points() == [(x, 0) for x in range(5)]


def test_region_matches_boundary_walk():
    for nu, delta in all_instances(6):
        region = build_region(delta)
        assert set(region.points()) == walk_region_boundaries(nu, delta)


def test_region_matches_box_corners_where_boxes_exist():
    # the box picture misses the sliver points along trailing east runs of
    # the boundary (a tree still needs those), so corners are a subset in
    # general and equal exactly when no row degenerates to a sliver
    compared = 0
    for nu, delta in all_instances(6):
        if nu.n == 0:
            continue
        boxes = boxes_by_shape(nu, delta)
        points = set(build_region(delta).points())
        assert boxes <= points
        heights = {y for _, y in boxes}
        if heights == set(range(nu.n + 1)) and nu.composition[-1] == 0:
            assert points == boxes
            compared += 1
    assert compared > 50


def test_region_row_widths_do_not_depend_on_delta():
    for nu in all_base_paths(6):
        widths = None
        for delta in increment_box(nu):
            region = build_region(delta)
            got = [region.row_hi[y] - region.row_lo[y] for y in range(nu.n + 1)]
            assert got == list(nu.east_prefixes)
            widths = widths or got


def test_maximal_increments_give_left_justified_region():
    for nu in all_base_paths(6):
        region = build_region(IncrementVector.maximal(nu))
        assert all(lo == 0 for lo in region.row_lo)
        assert region.row_hi == nu.east_prefixes


def test_compatibility_examples(eneen):
    region = build_region(IncrementVector((0, 0), eneen))  # ambient (3,0,0)
    assert compatible((2, 1), (2, 1), region)
    assert compatible((0, 1), (3, 1), region)
    assert not compatible((2, 0), (3, 1), region)
    assert not compatible((3, 1), (2, 0), region)


def test_compatibility_respects_the_ambient_staircase(eneen):
    # ambient base (1,2,0): its staircase reaches x = 1, 3, 3 at heights 0..2
    region = build_region(IncrementVector((2, 0), eneen))
    assert compatible((0, 0), (1, 1), region) is False
    assert compatible((2, 1), (3, 2), region) is False
    # the rectangle (1,0)-(2,1) pokes below the staircase, so the pair is fine
    assert compatible((1, 0), (2, 1), region) is True


def test_flushing_figure_examples(eneen):
    r20 = build_region(IncrementVector((2, 0), eneen))
    bottom = right_flushing(eneen.composition, r20)
    assert bottom.nodes == {(0, 0), (1, 0), (0, 1), (2, 1), (3, 1), (0, 2)}
    top = right_flushing((0, 0, 3), r20)
    assert top.nodes == {(1, 0), (3, 1), (0, 2), (1, 2), (2, 2), (3, 2)}
    assert left_flushing(bottom) == (1, 2, 0)
    assert left_flushing(top) == (0, 0, 3)


def test_right_flushing_rejects_paths_not_above_nu(eneen):
    r20 = build_region(IncrementVector((2, 0), eneen))
    for mu in [(2, 1, 0), (1, 2), (1, 2, 0, 0), (1, 1, 0), (1, 1, 2), (-1, 4, 0)]:
        with pytest.raises(ContractError, match="not weakly above"):
            right_flushing(mu, r20)


def test_flushing_single_row():
    flat = LatticePath("EEE")
    region = build_region(IncrementVector((), flat))
    tree = bottom_tree(region)
    assert tree.nodes == {(x, 0) for x in range(4)}


def test_flushing_round_trips_exhaustively():
    for nu, delta in all_instances(7):
        region = build_region(delta)
        seen = set()
        for mu in enumerate_nu_paths(nu):
            tree = right_flushing(mu, region)
            assert left_flushing(tree) == mu
            assert frozenset(tree.nodes) not in seen
            seen.add(frozenset(tree.nodes))


def test_trees_have_m_plus_n_plus_one_nodes_and_validate():
    for nu, delta in all_instances(6):
        region = build_region(delta)
        for mu in enumerate_nu_paths(nu):
            tree = right_flushing(mu, region)
            assert len(tree.nodes) == nu.m + nu.n + 1
            assert region.top_corner in tree.nodes
            tree.validate()


def test_trees_are_maximal():
    for nu, delta in all_instances(5):
        region = build_region(delta)
        points = set(region.points())
        for mu in enumerate_nu_paths(nu):
            tree = right_flushing(mu, region)
            for extra in points - tree.nodes:
                assert any(not compatible(extra, node, region) for node in tree.nodes)


def test_row_bounds_are_the_ambient_reach():
    # compatibility reads the ambient staircase off row_hi
    for nu, delta in all_instances(8):
        assert build_region(delta).row_hi == ambient_base(delta).east_prefixes


def test_trees_are_ambient_trees_inside_the_region():
    # the trees of (nu, delta) are exactly the trees of the ambient base
    # whose nodes all lie in the smaller region
    for nu, delta in all_instances(6):
        region = build_region(delta)
        ours = {right_flushing(mu, region).nodes for mu in enumerate_nu_paths(nu)}
        ambient = ambient_base(region.delta)
        ambient_region = build_region(IncrementVector.maximal(ambient))
        points = set(region.points())
        theirs = set()
        for mu in enumerate_nu_paths(ambient):
            nodes = right_flushing(mu, ambient_region).nodes
            if nodes <= points:
                theirs.add(nodes)
        assert ours == theirs


def test_rotation_figure_edge(eneen):
    r20 = build_region(IncrementVector((2, 0), eneen))
    bottom = right_flushing(eneen.composition, r20)
    target = right_flushing((0, 3, 0), r20)
    rotated = tree_rotation(bottom, (0, 0))
    assert rotated.nodes == target.nodes
    assert tree_rotation_down(target, (1, 1)).nodes == bottom.nodes


def test_rotation_error_cases(eneen):
    r20 = build_region(IncrementVector((2, 0), eneen))
    bottom = right_flushing(eneen.composition, r20)
    with pytest.raises(RotationError):
        tree_rotation(bottom, (1, 0))  # nothing above, nothing to the right
    with pytest.raises(RotationError):
        tree_rotation(bottom, (3, 1))  # nothing to the right
    with pytest.raises(RotationError):
        tree_rotation(bottom, (4, 4))  # not a node
    # rotations are one-directional: the fresh node admits no further up move
    target = tree_rotation(bottom, (0, 0))
    with pytest.raises(RotationError):
        tree_rotation(target, (1, 1))


def test_rotation_out_of_region():
    # downward rotations may exit the cut region even when they are fine in
    # the ambient staircase: that is what trims the lattice to an interval
    nu = LatticePath("ENEEN")
    region = build_region(IncrementVector((0, 0), nu))
    tree = bottom_tree(region)
    assert tree.nodes == {(2, 0), (3, 0), (0, 1), (1, 1), (2, 1), (0, 2)}
    with pytest.raises(RotationLeavesRegion):
        tree_rotation_down(tree, (2, 1))  # would land at (1, 0), a cut point


def test_rotation_correspondence_with_path_rotation():
    for nu, delta in all_instances(6):
        region = build_region(delta)
        for mu in enumerate_nu_paths(nu):
            tree = right_flushing(mu, region)
            for row in valleys(mu):
                rotated = delta_rotate(mu, delta, row)
                rotated_tree = right_flushing(rotated, region)
                moved_out = tree.nodes - rotated_tree.nodes
                moved_in = rotated_tree.nodes - tree.nodes
                assert len(moved_out) == 1 and len(moved_in) == 1
                pivot = next(iter(moved_out))
                assert tree_rotation(tree, pivot).nodes == rotated_tree.nodes


def test_tree_json_round_trip(eneen):
    r20 = build_region(IncrementVector((2, 0), eneen))
    tree = bottom_tree(r20)
    doc = tree.to_json_dict()
    assert doc["nodes"] == sorted(doc["nodes"], key=lambda p: (p[1], p[0]))
    assert tree_from_json(doc).nodes == tree.nodes
    broken = dict(doc, nodes=doc["nodes"][:-1])
    with pytest.raises(ContractError):
        tree_from_json(broken)

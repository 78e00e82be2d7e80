"""load_scene samples each primitive and snaps each keypoint once per call.

A gen bundle repeats every object of the run scene in the reference
scene at another pose; the reference scene then shares the run scene's
clouds and truth keypoints read-only, and they equal a separate load.
An object whose primitive or keypoint differs is still made on its own.
"""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from taskaxes import scenes
from taskaxes.scenes import load_scene, read_json, scene_from_json, snap_to_cloud, \
    write_task_bundle


def _counting(monkeypatch, name):
    calls = []
    real = getattr(scenes, name)

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(scenes, name, counted)
    return calls


def _assert_same_objects(scene, other):
    assert [o.name for o in scene.objects] == [o.name for o in other.objects]
    for obj, ref in zip(scene.objects, other.objects):
        assert np.array_equal(obj.cloud, ref.cloud)
        assert obj.truth_keypoints.keys() == ref.truth_keypoints.keys()
        for label, point in obj.truth_keypoints.items():
            assert np.array_equal(point, ref.truth_keypoints[label])


@pytest.fixture(scope="module", params=["scrape", "pour", "screw"])
def bundle(request, tmp_path_factory):
    out = tmp_path_factory.mktemp(request.param)
    write_task_bundle(request.param, str(out))
    return out


def test_gen_bundle_samples_each_primitive_once(bundle, monkeypatch):
    samples = _counting(monkeypatch, "sample_primitive")
    snaps = _counting(monkeypatch, "snap_to_cloud")
    scene, ref_scene, _, _ = load_scene(str(bundle / "scene.json"))
    assert len(samples) == 3
    keypoints = sum(len(o.truth_keypoints) for o in scene.objects)
    assert len(snaps) == keypoints
    for obj in scene.objects:
        ref = ref_scene.find(obj.name)
        assert np.shares_memory(ref.cloud, obj.cloud) and not obj.cloud.flags.writeable
        for label, point in obj.truth_keypoints.items():
            assert np.shares_memory(ref.truth_keypoints[label], point)
            assert not point.flags.writeable


def test_shared_reference_equals_a_separate_load(bundle):
    scene, ref_scene, _, _ = load_scene(str(bundle / "scene.json"))
    alone, _ = scene_from_json(read_json(bundle / "ref_scene.json"), str(bundle))
    _assert_same_objects(ref_scene, alone)
    run_alone, _ = scene_from_json(read_json(bundle / "scene.json"), str(bundle))
    _assert_same_objects(scene, run_alone)
    for obj, ref in zip(alone.objects, ref_scene.objects):
        assert obj.pose.origin.tobytes() == ref.pose.origin.tobytes()


def _edit_reference(bundle, tmp_path, edit):
    for name in ("scene.json", "ref_scene.json"):
        data = read_json(bundle / name)
        if name == "ref_scene.json":
            edit(data["objects"][1])
        (tmp_path / name).write_text(json.dumps(data))
    return load_scene(str(tmp_path / "scene.json"))


def test_changed_spacing_samples_that_object_on_its_own(bundle, tmp_path, monkeypatch):
    samples = _counting(monkeypatch, "sample_primitive")

    def coarser(obj):
        obj["primitive"]["spacing"] *= 2

    scene, ref_scene, _, _ = _edit_reference(bundle, tmp_path, coarser)
    assert len(samples) == 4
    name = ref_scene.objects[1].name
    assert ref_scene.find(name).cloud.shape[0] < scene.find(name).cloud.shape[0]
    alone, _ = scene_from_json(read_json(tmp_path / "ref_scene.json"), str(tmp_path))
    _assert_same_objects(ref_scene, alone)


def test_changed_keypoint_snaps_that_keypoint_on_its_own(bundle, tmp_path, monkeypatch):
    snaps = _counting(monkeypatch, "snap_to_cloud")
    moved = []

    def move(obj):
        label = sorted(obj["keypoints"])[0]
        obj["keypoints"][label] = [c + 0.004 for c in obj["keypoints"][label]]
        moved.append(label)

    scene, ref_scene, _, _ = _edit_reference(bundle, tmp_path, move)
    assert len(snaps) == sum(len(o.truth_keypoints) for o in scene.objects) + 1
    name = ref_scene.objects[1].name
    assert np.shares_memory(ref_scene.find(name).cloud, scene.find(name).cloud)
    assert not np.array_equal(ref_scene.find(name).truth_keypoints[moved[0]],
                              scene.find(name).truth_keypoints[moved[0]])
    alone, _ = scene_from_json(read_json(tmp_path / "ref_scene.json"), str(tmp_path))
    _assert_same_objects(ref_scene, alone)


def _snap_seed(point, cloud):
    """snap_to_cloud as first written."""
    d2 = np.sum((cloud - np.asarray(point, dtype=np.float64)) ** 2, axis=1)
    return cloud[int(np.argmin(d2))].copy()


_coord = st.floats(-0.2, 0.2, allow_nan=False, width=64)


@settings(max_examples=200, deadline=None)
@given(hnp.arrays(np.float64, st.tuples(st.integers(1, 60), st.just(3)), elements=_coord),
       st.tuples(_coord, _coord, _coord), st.integers(0, 3))
def test_snap_to_cloud_is_bit_exact(cloud, point, repeats):
    # repeated rows make ties, which go to the first of them
    cloud = np.concatenate([cloud] * (repeats + 1))
    got = snap_to_cloud(point, cloud)
    assert got.tobytes() == _snap_seed(point, cloud).tobytes()
    assert not np.shares_memory(got, cloud)

"""Scene construction: primitive cloud sampling, JSON I/O, demo scenes.

Scene JSON layout:

    {
      "intrinsics": {"fx":..,"fy":..,"cx":..,"cy":..,"width":..,"height":..},
      "ee_start": {"origin": [x,y,z], "rpy_deg": [r,p,y]},
      "features": {"dim":.., "length_scale":.., "noise_sigma":.., "seed":..},
      "reference": "ref_scene.json",            # optional sibling file
      "objects": [
        {"name": "...", "pose": {"origin": [..], "rpy_deg": [..]},
         "primitive": {"type": "plane|box|cylinder", ...} | "cloud": [[x,y,z],..]
           | "cloud_file": "points.json",
         "keypoints": {"label": [x,y,z]},        # object frame
         "surfaces": [{"point": [..], "normal": [..], "stiffness": N_per_m}],
         "graspable": true, "contact_probe": "tip_pos"}
      ]
    }

Primitives carry a "spacing" (grid pitch in meters, the reciprocal of
linear sampling density). Keypoints are snapped to the nearest sampled
cloud point at load time so that annotated points are guaranteed to lie
on the rendered surface.
"""

from __future__ import annotations

import copy
import dataclasses
import json
import os

import numpy as np

from .errors import (ConfigError, FileFormatError, entry, finite, known_keys, name_entry,
                     positive, scalar, typed)
from .features import read_depth_mask, read_feature_grid
from .geometry import CameraIntrinsics, Frame, project_point
from .grounding import AxisSpec, GroundingSpec, KeypointRef, spec_to_json
from .simulator import (
    EE_START_ORIGIN,
    EE_START_RPY_DEG,
    ContactSurface,
    FeatureRenderConfig,
    Scene,
    SceneObject,
)

DESK_Z = 0.45
TASK_SEED = 7    # feature seed of the demo task scenes unless one is given
MAX_PRIMITIVE_POINTS = 2_000_000
_CLOUD_SOURCES = ("primitive", "cloud", "cloud_file")    # an object has one


# ----------------------------------------------------------------------
# primitive sampling


def _budget(points):
    """ConfigError, before sampling, unless `points` fit MAX_PRIMITIVE_POINTS."""
    if not points <= MAX_PRIMITIVE_POINTS:
        raise ConfigError(f"primitive would sample {points:.3g} points, more than "
                          f"{MAX_PRIMITIVE_POINTS}; raise its spacing")


def _cover(lo, hi, spacing):
    n = (hi - lo) / spacing
    _budget(n)
    return np.linspace(lo, hi, max(2, int(round(n)) + 1))


def _face(a, b, axis, value):
    """Points of the grid of covers a x b, with coordinate `axis` held at `value`."""
    ga, gb = np.meshgrid(a, b, indexing="ij")
    columns = [ga.ravel(), gb.ravel()]
    columns.insert(axis, np.full(ga.size, value))
    return np.column_stack(columns)


def sample_plane(size_x, size_y, spacing):
    xs = _cover(-size_x / 2, size_x / 2, spacing)
    ys = _cover(-size_y / 2, size_y / 2, spacing)
    _budget(xs.size * ys.size)
    return _face(xs, ys, 2, 0.0)


def sample_box(size_x, size_y, size_z, spacing):
    hx, hy, hz = size_x / 2, size_y / 2, size_z / 2
    xs, ys, zs = (_cover(-h, h, spacing) for h in (hx, hy, hz))
    _budget(2 * (xs.size * ys.size + xs.size * zs.size + ys.size * zs.size))
    faces = [_face(xs, ys, 2, z) for z in (-hz, hz)]
    faces += [_face(xs, zs, 1, y) for y in (-hy, hy)]
    faces += [_face(ys, zs, 0, x) for x in (-hx, hx)]
    return np.concatenate(faces)


def sample_cylinder(radius, height, spacing):
    h = height / 2
    xs = _cover(-radius, radius, spacing)
    zs = _cover(-h, h, spacing)
    n_theta = max(12, int(round(2 * np.pi * radius / spacing)))
    _budget(n_theta * zs.size + 2 * xs.size ** 2)
    thetas = np.linspace(0.0, 2 * np.pi, n_theta, endpoint=False)
    gt, gz = np.meshgrid(thetas, zs, indexing="ij")
    side = np.column_stack([radius * np.cos(gt).ravel(),
                            radius * np.sin(gt).ravel(), gz.ravel()])
    gx, gy = np.meshgrid(xs, xs, indexing="ij")
    inside = gx ** 2 + gy ** 2 <= radius ** 2
    disk = np.column_stack([gx[inside], gy[inside]])
    caps = [np.column_stack([disk, np.full(disk.shape[0], z)]) for z in (-h, h)]
    return np.concatenate([side] + caps)


def _extent(spec, key, shape, default=None):
    """The positive number, or numbers of `shape`, of primitive key `key`."""
    value = finite(key, spec.get(key, default) if default else entry(spec, key, key), shape)
    for x in value.flat:
        positive(key, x)
    return value.tolist()


_SIZE_KEYS = {"plane": ("size",), "box": ("size",), "cylinder": ("radius", "height")}


def sample_primitive(spec: dict) -> np.ndarray:
    kind = spec.get("type")
    if not (isinstance(kind, str) and kind in _SIZE_KEYS):
        raise ConfigError(f"unknown primitive type {kind!r}")
    known_keys(spec, ("type", "spacing", *_SIZE_KEYS[kind]), "primitive.")
    spacing = _extent(spec, "spacing", (), 0.0015)
    if kind == "plane":
        return sample_plane(*_extent(spec, "size", (2,)), spacing)
    if kind == "box":
        return sample_box(*_extent(spec, "size", (3,)), spacing)
    return sample_cylinder(*(_extent(spec, key, ()) for key in _SIZE_KEYS[kind]), spacing)


def snap_to_cloud(point, cloud) -> np.ndarray:
    """Copy of the cloud point nearest `point`, the first one on a tie.
    The squared distance sums x, y, z left to right, the order of the
    `np.sum(d ** 2, axis=1)` it replaces, without its slow short-axis
    reduction."""
    d = cloud - np.asarray(point, dtype=np.float64)
    with np.errstate(over="ignore"):    # a far point's distances may all be inf
        d *= d
        d2 = d[:, 0] + d[:, 1]
        d2 += d[:, 2]
    return cloud[int(np.argmin(d2))].copy()


# ----------------------------------------------------------------------
# scene JSON


def read_text(path) -> str:
    """Text of the UTF-8 file at `path`; a decode error names the file."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return fh.read()
        except UnicodeDecodeError as err:
            raise FileFormatError(f"{path}: not UTF-8 text ({err.reason} at byte "
                                  f"{err.start})") from None


def read_json(path, build=lambda data: data):
    """build(JSON value of the file at `path`); a decode error, or an error
    in the value's layout or settings, names the file."""
    try:
        data = json.loads(read_text(path))
    except json.JSONDecodeError as err:
        raise FileFormatError(f"{path}: malformed JSON at line {err.lineno}, "
                              f"column {err.colno}: {err.msg}") from None
    try:
        return build(data)
    except (FileFormatError, ConfigError) as err:
        raise err.annotate(path) from None


def write_json(path, payload):
    """JSON file layout of every output: indent 2, sorted keys, final newline."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _shared(memo, key, make):
    """make() once per key of dict `memo`, read-only, since every later
    call returns that array; make() on every call when key is None."""
    if key is None:
        return make()
    if key not in memo:
        memo[key] = make()
        memo[key].flags.writeable = False
    return memo[key]


def _pose(data, key, origin=(0, 0, 0), rpy_deg=(0, 0, 0)) -> Frame:
    """Frame of the pose object data[key], {"origin", "rpy_deg"}, each key
    defaulting to the value given; an error in it names `key`."""
    pose = typed(data.get(key, {}), dict, key)
    known_keys(pose, ("origin", "rpy_deg"), f"{key}.")
    try:
        return Frame.from_rpy_deg(pose.get("origin", origin), pose.get("rpy_deg", rpy_deg))
    except ConfigError as err:
        raise err.annotate(key) from None


def object_from_json(data: dict, base_dir=".", memo=None) -> SceneObject:
    """Build one object. With a `memo` dict, a primitive cloud and its
    snapped keypoints are made once per primitive JSON and keypoint
    coordinates, and shared read-only by every object the memo serves."""
    known_keys(data, ("name", "pose", *_CLOUD_SOURCES, "keypoints", "surfaces", "graspable",
                      "contact_probe"))
    sources = [key for key in _CLOUD_SOURCES if key in data]
    if len(sources) != 1:
        raise FileFormatError(f"needs one of {', '.join(_CLOUD_SOURCES)}, got {sources}")
    source = None   # the primitive JSON, when the memo may share its cloud
    if "primitive" in data:
        primitive = typed(data["primitive"], dict, "primitive")
        if memo is not None:
            source = json.dumps(primitive, sort_keys=True)
        cloud = _shared(memo, source, lambda: sample_primitive(primitive))
    elif "cloud" in data:
        cloud = data["cloud"]   # SceneObject checks it
    else:
        name = typed(data["cloud_file"], str, "cloud_file")
        cloud = finite(f"cloud_file {name}", read_json(os.path.join(base_dir, name)), (-1, 3))
    surfaces = []
    for i, s in enumerate(typed(data.get("surfaces", []), list, "surfaces")):
        path = f"surfaces[{i}]"
        known_keys(typed(s, dict, path), ("point", "normal", "stiffness"), f"{path}.")
        surfaces.append(ContactSurface(entry(s, "point", f"{path}.point"),
                                       entry(s, "normal", f"{path}.normal"),
                                       entry(s, "stiffness", f"{path}.stiffness", float)))
    keypoints = {label: finite(f"keypoints.{label}", p, (3,))
                 for label, p in typed(data.get("keypoints", {}), dict, "keypoints").items()}
    probe = data.get("contact_probe")
    obj = SceneObject(name=name_entry(data, "name", "name"), pose=_pose(data, "pose"),
                      cloud=cloud, truth_keypoints=keypoints, surfaces=surfaces,
                      graspable=scalar(data.get("graspable", False), bool, "graspable"),
                      contact_probe=None if probe is None else typed(probe, str, "contact_probe"))
    # each keypoint snaps to the nearest point of the cloud the constructor checked
    for label, point in keypoints.items():
        key = None if source is None else (source, point.tobytes())
        obj.truth_keypoints[label] = _shared(memo, key, lambda: snap_to_cloud(point, obj.cloud))
    return obj


def config_from_json(base, data, prefix=""):
    """Copy of config dataclass `base` with the values of JSON object
    `data`, each read as the type of the default it replaces.

    A nested config takes a nested object. Unknown keys, values not of the
    default's type (as `scalar` reads it) and values the class rejects
    raise an error naming the dotted key; the caller prefixes the file.
    """
    data = dict(typed(data, dict, prefix[:-1] or "config"))
    changes = {}
    for f in dataclasses.fields(base):
        if f.name not in data:
            continue
        old = getattr(base, f.name)
        if dataclasses.is_dataclass(old):
            changes[f.name] = config_from_json(old, data.pop(f.name), f"{prefix}{f.name}.")
        else:
            changes[f.name] = scalar(data.pop(f.name), type(old), prefix + f.name)
    known_keys(data, (), prefix)    # the keys no field took
    # each class checks its fields one by one, so one value at a time names the key
    for key, value in changes.items():
        try:
            base = dataclasses.replace(base, **{key: value})
        except ConfigError as err:
            raise err.annotate(prefix + key) from None
    return base


def scene_from_json(data: dict, base_dir=".", memo=None):
    """Build a Scene; returns (scene, reference_path_or_None). `memo` is
    passed to object_from_json."""
    known_keys(typed(data, dict, "scene"), ("intrinsics", "ee_start", "features", "reference",
                                            "objects", "feature_files"))
    intr = CameraIntrinsics.from_json(entry(data, "intrinsics", "intrinsics"), "intrinsics.")
    ee_start = _pose(data, "ee_start", EE_START_ORIGIN, EE_START_RPY_DEG)
    features = config_from_json(FeatureRenderConfig(), data.get("features", {}),
                                "features.")
    objects = []
    for i, o in enumerate(typed(data.get("objects", []), list, "objects")):
        typed(o, dict, f"objects[{i}]")
        try:
            objects.append(object_from_json(o, base_dir, memo))
        except (ConfigError, FileFormatError) as err:
            raise err.annotate(f"object {o.get('name')!r}") from None
    scene = Scene(objects=objects, intrinsics=intr, ee_start=ee_start,
                  features=features)
    reference = data.get("reference")
    return scene, None if reference is None else typed(reference, str, "reference")


def load_scene(path):
    """Load a scene file plus the reference scene and pre-extracted
    feature files it names, if any.

    Returns (scene, ref_scene, feature_files, paths). ref_scene and
    feature_files are None when the file does not name them;
    feature_files is the (reference grid, target grid, target depth)
    triple, which replaces synthetic rendering. paths lists every file
    read besides `path` itself.

    The two scenes usually repeat their objects at other poses, so each
    primitive is sampled, and each keypoint snapped, once per call; the
    scenes share those arrays read-only.
    """
    base_dir = os.path.dirname(os.path.abspath(path))
    memo = {}

    def build(data):
        scene, ref_name = scene_from_json(data, base_dir, memo)
        files, keys = data.get("feature_files"), ("ref", "target", "target_depth")
        if files is None:
            return scene, ref_name, []
        known_keys(typed(files, dict, "feature_files"), keys, "feature_files.")
        return scene, ref_name, [os.path.join(base_dir, name_entry(
            files, k, f"feature_files.{k}")) for k in keys]

    scene, ref_name, grids = read_json(path, build)
    paths = []
    ref_scene = None
    if ref_name:
        ref_path = os.path.join(base_dir, ref_name)
        ref_scene, _ = read_json(ref_path, lambda data: scene_from_json(data, base_dir, memo))
        paths.append(ref_path)
    feature_files = None
    if grids:
        feature_files = (read_feature_grid(grids[0]), read_feature_grid(grids[1]),
                         read_depth_mask(grids[2]))
        paths.extend(grids)
    return scene, ref_scene, feature_files, paths


# ----------------------------------------------------------------------
# grounding specs from reference scenes


def make_grounding_spec(ref_scene: Scene, object_name: str, keypoint_labels,
                        axes, reference_image_id="reference") -> GroundingSpec:
    """Annotate reference pixels by projecting truth keypoints."""
    obj = ref_scene.find(object_name)
    intr = ref_scene.intrinsics
    keypoints = []
    for label in keypoint_labels:
        world = obj.world_keypoint(label)
        u, v, _ = project_point(world, intr)
        pu, pv = int(round(u)), int(round(v))
        if not (0 <= pu < intr.width and 0 <= pv < intr.height):
            raise ConfigError(f"{object_name}.{label} projects outside the image")
        keypoints.append(KeypointRef(object=object_name, label=label, pixel=(pu, pv)))
    return GroundingSpec(reference_image_id=reference_image_id,
                         keypoints=keypoints, axes=list(axes))


# ----------------------------------------------------------------------
# demo task scenes


# each demo object: the depth of its pose origin below the desk top, the
# pitch of its pose (degrees), and the rest of its JSON
_DEMO_OBJECTS = {
    "desk": (0.0, 0.0, {
        "primitive": {"type": "plane", "size": [0.5, 0.38], "spacing": 0.0012},
        "keypoints": {}, "surfaces": [], "graspable": False}),
    "spatula": (0.005, 0.0, {
        "primitive": {"type": "box", "size": [0.22, 0.045, 0.01], "spacing": 0.0007},
        "keypoints": {"tip_pos": [0.1, 0.0, -0.005], "handle_pos": [-0.105, 0.0, -0.005],
                      "grasp_pos": [-0.075, 0.0, -0.005]},
        "surfaces": [], "graspable": True, "contact_probe": "tip_pos"}),
    "pan": (0.006, 0.0, {
        "primitive": {"type": "cylinder", "radius": 0.12, "height": 0.012, "spacing": 0.0007},
        "keypoints": {"center_pos": [0.0, 0.0, -0.006], "rim_pos": [-0.095, 0.0, -0.006],
                      "scrape_pos": [-0.05, 0.0, -0.006]},
        "surfaces": [{"point": [0.0, 0.0, -0.006], "normal": [0.0, 0.0, -1.0],
                      "stiffness": 15000.0}],
        "graspable": False}),
    "mug": (0.05, 0.0, {
        "primitive": {"type": "cylinder", "radius": 0.035, "height": 0.10, "spacing": 0.00045},
        "keypoints": {"center_pos": [0.0, 0.0, -0.05], "edge_pos": [0.0325, 0.0, -0.05],
                      "handle_pos": [0.028, 0.0, -0.05]},
        "surfaces": [], "graspable": True}),
    "bowl": (0.02, 0.0, {
        "primitive": {"type": "cylinder", "radius": 0.075, "height": 0.04, "spacing": 0.00055},
        "keypoints": {"center_pos": [0.0, 0.0, -0.02]}, "surfaces": [], "graspable": False}),
    # lying flat: local z (shaft axis) pitched onto the desk plane
    "screw": (0.004, 90.0, {
        "primitive": {"type": "cylinder", "radius": 0.004, "height": 0.07, "spacing": 0.0005},
        "keypoints": {"head_pos": [0.004, 0.0, -0.031], "tip_pos": [0.004, 0.0, 0.031],
                      "grasp_pos": [0.004, 0.0, 0.005]},
        "surfaces": [], "graspable": True, "contact_probe": "tip_pos"}),
    "block": (0.015, 0.0, {
        "primitive": {"type": "box", "size": [0.12, 0.12, 0.03], "spacing": 0.00065},
        "keypoints": {"hole_pos": [0.0, 0.0, -0.015]},
        "surfaces": [{"point": [0.0, 0.0, 0.005], "normal": [0.0, 0.0, -1.0],
                      "stiffness": 5000.0}],
        "graspable": False}),
}


def _place(name, x=0.0, y=0.0, yaw_deg=0.0):
    """A fresh JSON of demo object `name` at desk position (x, y), turned by yaw_deg."""
    depth, pitch, rest = _DEMO_OBJECTS[name]
    return {"name": name, "pose": {"origin": [x, y, DESK_Z - depth],
                                   "rpy_deg": [0.0, pitch, yaw_deg]}, **copy.deepcopy(rest)}


def _base_scene_json(objects, seed):
    return {
        "intrinsics": {"fx": 600.0, "fy": 600.0, "cx": 320.0, "cy": 240.0,
                       "width": 640, "height": 480},
        "ee_start": {"origin": list(EE_START_ORIGIN), "rpy_deg": list(EE_START_RPY_DEG)},
        "features": dataclasses.asdict(FeatureRenderConfig(seed=seed)),
        "objects": objects,
    }


_SPEC_AXES = {
    "spatula": [AxisSpec(label="tip_dir", kind="from_keypoints",
                         a="tip_pos", b="handle_pos")],
    "pan": [AxisSpec(label="surface_dir", kind="surface_normal", at="center_pos"),
            AxisSpec(label="scrape_dir", kind="from_keypoints",
                     a="center_pos", b="rim_pos")],
    "mug": [AxisSpec(label="up_dir", kind="surface_normal", at="center_pos"),
            AxisSpec(label="edge_dir", kind="edge_direction", at="edge_pos")],
    "bowl": [AxisSpec(label="surface_dir", kind="surface_normal", at="center_pos")],
    "screw": [AxisSpec(label="axis_dir", kind="from_keypoints",
                       a="tip_pos", b="head_pos")],
    "block": [AxisSpec(label="hole_dir", kind="surface_normal", at="hole_pos"),
              AxisSpec(label="turn_ref", kind="global", dir=(-1.0, 0.0, 0.0))],
}

# each demo task's objects besides the desk, name -> their (x, y, yaw_deg)
# on the desk in the reference scene, then in the run scene
_PLACEMENTS = {
    "scrape": {"spatula": ((-0.115, 0.09, 0.0), (-0.12, 0.10, 20.0)),
               "pan": ((0.10, -0.02, 85.0), (0.09, -0.03, 90.0))},
    "pour": {"mug": ((-0.08, -0.04, 0.0), (-0.09, -0.05, 0.0)),
             "bowl": ((0.07, 0.05, 0.0), (0.08, 0.06, 0.0))},
    "screw": {"screw": ((-0.06, 0.04, 0.0), (-0.07, 0.05, 0.0)),
              "block": ((0.07, -0.03, 0.0), (0.08, -0.04, 0.0))},
}

TASKS = tuple(_PLACEMENTS)


def build_task(task: str, seed: int = TASK_SEED):
    """Scene pair, grounding specs, and skill source for one demo task.

    Returns a dict with the run scene / reference scene JSON (the run
    scene's objects sit at different poses than the reference ones, so
    grounding performs a real transfer), a grounding spec per placed
    object, under its name as the skill's role, and the skill source text.
    """
    if task not in _PLACEMENTS:
        raise ConfigError(f"unknown task {task!r}; expected one of {TASKS}")
    placed = _PLACEMENTS[task]
    ref_json, run_json = (
        _base_scene_json([_place("desk")] + [_place(name, *where[i])
                                             for name, where in placed.items()], seed)
        for i in (0, 1))
    run_json["reference"] = "ref_scene.json"
    ref_scene, _ = scene_from_json(ref_json)
    specs = {name: make_grounding_spec(ref_scene, name,
                                       sorted(ref_scene.find(name).truth_keypoints),
                                       _SPEC_AXES[name], reference_image_id=f"{task}_reference")
             for name in placed}
    return {"task": task, "scene": run_json, "ref_scene": ref_json,
            "specs": specs, "skill_text": load_skill_text(task)}


def load_skill_text(task: str) -> str:
    here = os.path.dirname(os.path.abspath(__file__))
    return read_text(os.path.join(here, "data", "skills", f"{task}.skill"))


def write_task_bundle(task: str, out_dir: str, seed: int = TASK_SEED):
    """Write scene.json, ref_scene.json, role specs, and the skill file."""
    bundle = build_task(task, seed=seed)
    os.makedirs(out_dir, exist_ok=True)
    payloads = {"scene.json": bundle["scene"], "ref_scene.json": bundle["ref_scene"]}
    payloads.update((f"{role}.json", spec_to_json(spec))
                    for role, spec in bundle["specs"].items())
    paths = {name: os.path.join(out_dir, name) for name in payloads}
    for name, payload in payloads.items():
        write_json(paths[name], payload)
    skill_path = os.path.join(out_dir, f"{task}.skill")
    with open(skill_path, "w", encoding="utf-8") as fh:
        fh.write(bundle["skill_text"])
    paths[f"{task}.skill"] = skill_path
    return paths

"""Desk-scale kinematic execution environment.

A free-flying end effector tracks commanded twists perfectly (forward
Euler at a fixed dt); rigid objects carry sampled surface clouds,
labeled ground-truth keypoints, and penalty-contact surfaces. Contact
produces a sensed force only (spring model, no dynamics): the reaction
on the tool is stiffness * penetration * surface normal, summed over
penetrated surfaces and evaluated at the tool's contact probe point.

Synthetic feature rendering gives the grounding pipeline a closed-loop
oracle: each rendered pixel's descriptor is a fixed smooth function of
(object identity, object-local surface point), so true correspondences
across rigid transforms share descriptors exactly (plus optional
Gaussian noise).
"""

from __future__ import annotations

import json
import operator
import re
import zlib
from dataclasses import dataclass, field, replace

import numpy as np

from .controllers import (
    BINDING_KINDS,
    FORCE_ALIGN,
    ROTATIONAL,
    TRANSLATIONAL,
    Gains,
    Limits,
    ObservationBundle,
)
from .errors import (
    ConfigError,
    EmptyScene,
    GraspTooFar,
    TaskAxesError,
    UnresolvedBinding,
    finite,
    positive,
)
from .features import DepthMask, FeatureGrid, MatchConfig, add_noise, window_pixels
from .geometry import CameraIntrinsics, Frame, rotvec_to_matrix, unit
from .grounding import GroundedParams, GroundingConfig, ground_spec
from .skill import ROBOT_ROLE_SOURCE, GraspStep, LiftedSkill, SkillPhase, Twist, run_phase

ROBOT_BUILTIN_AXES = ("x", "y", "z")
ROBOT_BUILTIN_KEYPOINT = "pos"

# end-effector start pose of a scene that names none: 25 cm in front of
# the camera, axes along the camera's
EE_START_ORIGIN = (0.0, 0.0, 0.25)
EE_START_RPY_DEG = (0.0, 0.0, 0.0)


@dataclass
class ContactSurface:
    """Plane spring in the owning object's frame."""

    point: np.ndarray
    normal: np.ndarray
    stiffness: float

    def __post_init__(self):
        self.point = finite("point", self.point, (3,))
        self.normal = unit(finite("normal", self.normal, (3,)))
        positive("stiffness", self.stiffness)


@dataclass
class SceneObject:
    name: str
    pose: Frame
    cloud: np.ndarray                      # (N, 3) object frame
    truth_keypoints: dict = field(default_factory=dict)
    surfaces: list = field(default_factory=list)
    graspable: bool = False
    contact_probe: str = None              # keypoint used as tool tip after grasp

    def __post_init__(self):
        self.cloud = finite("cloud", self.cloud, (-1, 3))
        self.truth_keypoints = {k: np.asarray(v, dtype=np.float64)
                                for k, v in self.truth_keypoints.items()}
        if self.contact_probe is not None and self.contact_probe not in self.truth_keypoints:
            raise ConfigError(f"contact_probe {self.contact_probe!r} is none of the "
                              f"object's keypoints {sorted(self.truth_keypoints)}")

    def world_keypoint(self, label) -> np.ndarray:
        return self.pose.apply(self.truth_keypoints[label])


@dataclass
class FeatureRenderConfig:
    dim: int = 24
    length_scale: float = 0.02
    noise_sigma: float = 0.0
    seed: int = 0

    def __post_init__(self):
        if self.dim < 4:
            raise ConfigError("descriptor dimension must be >= 4")
        positive("length_scale", self.length_scale)
        # a finite sigma can still overflow float32; the render checks its rows
        if not 0 <= self.noise_sigma < np.inf:
            raise ConfigError(f"noise_sigma must be >= 0 and finite, got {self.noise_sigma}")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")


@dataclass
class Scene:
    objects: list
    intrinsics: CameraIntrinsics
    ee_start: Frame = field(
        default_factory=lambda: Frame.from_rpy_deg(EE_START_ORIGIN, EE_START_RPY_DEG))
    features: FeatureRenderConfig = field(default_factory=FeatureRenderConfig)
    _planes: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def find(self, name) -> SceneObject:
        for obj in self.objects:
            if obj.name == name:
                return obj
        raise ConfigError(f"no object named {name!r} in scene")

    def contact_planes(self, exclude) -> tuple:
        """World-frame (point, normal, stiffness) of every surface of the objects
        not named `exclude` (the attached one), in scene order. Object poses are
        fixed once a scene is simulated, so each `exclude` is computed once."""
        if exclude not in self._planes:
            self._planes[exclude] = tuple(
                (obj.pose.apply(surf.point), obj.pose.apply_dir(surf.normal), surf.stiffness)
                for obj in self.objects if obj.name != exclude for surf in obj.surfaces)
        return self._planes[exclude]


def _object_basis(name: str, cfg: FeatureRenderConfig):
    """Per-object random Fourier basis, stable across renders and runs."""
    tag = zlib.crc32(name.encode("utf-8"))
    rng = np.random.default_rng(np.random.SeedSequence([cfg.seed, tag]))
    freqs = rng.normal(0.0, 1.0 / cfg.length_scale, size=(cfg.dim, 3))
    phases = rng.uniform(0.0, 2.0 * np.pi, size=cfg.dim)
    return freqs, phases


def _zbuffer(scene: Scene):
    """(won, point, depth) of the scene's z-buffer: the ascending flat
    indices (v * width + u) of the pixels some point wins, the global
    index of each winning point (objects own consecutive ranges of it, in
    scene order), and the whole image's flat depth, NaN where none wins."""
    intr = scene.intrinsics
    world = np.concatenate([obj.cloud @ obj.pose.rotation.T + obj.pose.origin
                            for obj in scene.objects if obj.cloud.shape[0]])

    z = world[:, 2]
    front = z > 1e-6
    safe_z = np.where(front, z, 1.0)
    u = np.rint(intr.fx * world[:, 0] / safe_z + intr.cx).astype(np.int64)
    v = np.rint(intr.fy * world[:, 1] / safe_z + intr.cy).astype(np.int64)
    visible = front & (u >= 0) & (u < intr.width) & (v >= 0) & (v < intr.height)
    point_idx = np.flatnonzero(visible)  # global index of each visible point
    u, v, z = u[point_idx], v[point_idx], z[point_idx]

    # the nearest depth per pixel, then the lowest point index among the
    # points at that depth; winners come out in pixel order
    size = intr.height * intr.width
    flat = v * intr.width + u
    nearest = np.full(size, np.inf)
    np.minimum.at(nearest, flat, z)
    at_nearest = np.flatnonzero(z == nearest[flat])
    first = np.full(size, flat.size)
    np.minimum.at(first, flat[at_nearest], at_nearest)
    won = np.flatnonzero(first < flat.size)
    winners = first[won]
    depth = np.full(size, np.nan)
    depth[won] = z[winners]
    return won, point_idx[winners], depth


def render_synthetic_features(scene: Scene, noise_tag: int = 0, pixels=None):
    """Render the scene into a (FeatureGrid, DepthMask) pair.

    Every object point is projected through the pinhole model; the
    nearest point wins each pixel (ties by global point order). The
    winning pixel's descriptor is cos(W p_local + b) with a per-object
    basis W, b, making descriptors invariant to the object's world pose.
    Background pixels get NaN depth and a zero descriptor.

    `pixels`, when given, holds the flat indices (v * width + u) whose
    descriptors will be read: only those get one, every other pixel of
    the grid reads as zero. The depth always covers the whole image.

    Descriptors and noise are computed only for the kept winners, in
    pixel order, into one float64 array, which the grid takes over as its
    rows after rounding them to float32 in place. The noise is that of
    one normal draw of shape (winners, dim), of which the kept rows are
    added, so a pixel's bytes do not depend on `pixels`.

    Memory: besides that array (the output) and the z-buffer's per-pixel
    arrays, the only large transient is one object's descriptor block,
    cloud[idx] @ W.T, made, phase-shifted and passed through cos in place
    before it is copied into the array; the z-buffer's per-point arrays
    are freed before it is made, and the noise is drawn a block of rows
    at a time. The product is not split into row blocks, since a blocked
    BLAS product can differ in the last bit from the whole one.
    """
    cfg = scene.features
    if not scene.objects or all(obj.cloud.shape[0] == 0 for obj in scene.objects):
        raise EmptyScene("scene has no renderable points")
    won, point, depth = _zbuffer(scene)

    at = np.arange(won.size)   # each kept winner's row of the noise draw
    if pixels is not None:
        wanted = np.zeros(depth.size, dtype=bool)
        wanted[pixels] = True
        at = np.flatnonzero(wanted[won])
        won, point = won[at], point[at]

    desc = np.empty((won.size, cfg.dim))
    start = 0
    for obj in scene.objects:
        stop = start + obj.cloud.shape[0]
        sel = (point >= start) & (point < stop)
        if sel.any():
            freqs, phase = _object_basis(obj.name, cfg)
            block = obj.cloud[point[sel] - start] @ freqs.T
            block += phase
            desc[sel] = np.cos(block, out=block)
            del block   # before the next object's block is made
        start = stop
    if cfg.noise_sigma > 0:
        add_noise(desc, at, cfg.noise_sigma, np.random.default_rng(
            np.random.SeedSequence([cfg.seed, 7919, noise_tag])))
    intr = scene.intrinsics
    grid = FeatureGrid.from_rows(intr.height, intr.width, won, desc, np.float32,
                                 {"source": "synthetic", "dim": str(cfg.dim),
                                  "length_scale": str(cfg.length_scale),
                                  "noise_sigma": str(cfg.noise_sigma)})
    return grid, DepthMask(depth=depth.reshape(intr.height, intr.width))


def render_reference(scene: Scene, keypoints, radius: int):
    """The (FeatureGrid, DepthMask) of reference `scene` as grounding reads
    it: descriptors only in the `radius` windows around the pixels of the
    KeypointRefs `keypoints`, which is all that matching reads of a
    reference, and the depth of the whole image."""
    intr = scene.intrinsics
    read = window_pixels([kp.pixel for kp in keypoints], intr.width, intr.height, radius)
    return render_synthetic_features(scene, pixels=read)


# ----------------------------------------------------------------------
# simulation state


@dataclass
class RunConfig:
    dt: float = 0.005
    grasp_tol: float = 0.005
    gains: Gains = field(default_factory=Gains)     # a skill's unset controller gains
    limits: Limits = field(default_factory=Limits)
    # synthetic descriptors are exact, so the argmax transfer is too;
    # soft mode stays the default at the matching CLI where noisy
    # real-world grids are the expected input
    grounding: GroundingConfig = field(
        default_factory=lambda: GroundingConfig(match=MatchConfig(mode="hard")))

    def __post_init__(self):
        positive("dt", self.dt)
        positive("grasp_tol", self.grasp_tol)


@dataclass(slots=True)
class SimState:
    """Trusted state of one run: dt comes from a checked RunConfig."""

    ee: Frame
    attached: tuple = None          # (object name, grip Frame: object in ee frame)
    probe_local: np.ndarray = field(default_factory=lambda: np.zeros(3))  # in ee frame
    contact_force: np.ndarray = field(default_factory=lambda: np.zeros(3))
    t: int = 0
    dt: float = RunConfig.dt


def _contact_force(scene: Scene, state: SimState, probe_world) -> np.ndarray:
    force = np.zeros(3)
    for point, normal, stiffness in scene.contact_planes(
            state.attached[0] if state.attached else None):
        depth = float((point - probe_world) @ normal)
        if depth > 0:
            force = force + stiffness * depth * normal
    return force


def step_sim(state: SimState, twist: Twist, scene: Scene) -> SimState:
    """One forward-Euler tick: integrate the twist, re-evaluate contact."""
    origin = state.ee.origin + twist.v * state.dt
    rot = rotvec_to_matrix(twist.w * state.dt) @ state.ee.rotation
    probe_world = rot @ state.probe_local + origin
    return SimState(Frame._trusted(origin, rot), state.attached, state.probe_local,
                    _contact_force(scene, state, probe_world), state.t + 1, state.dt)


def _graspable(scene: Scene, object_name: str, keypoint: str) -> SceneObject:
    """The scene's object `object_name`, which must be graspable at `keypoint`."""
    obj = scene.find(object_name)
    if not obj.graspable:
        raise ConfigError(f"object {object_name!r} is not graspable")
    if keypoint not in obj.truth_keypoints:
        raise ConfigError(f"object {object_name!r} has no keypoint {keypoint!r}")
    return obj


def grasp(state: SimState, scene: Scene, object_name: str, keypoint: str,
          tol: float = RunConfig.grasp_tol) -> SimState:
    """Rigidly attach an object when the gripper is at its grasp keypoint."""
    obj = _graspable(scene, object_name, keypoint)
    target = obj.world_keypoint(keypoint)
    distance = float(np.linalg.norm(state.ee.origin - target))
    if distance > tol:
        raise GraspTooFar(
            f"gripper is {distance * 1000:.1f} mm from {object_name}.{keypoint}, "
            f"tolerance {tol * 1000:.1f} mm", distance=distance)
    grip = state.ee.inverse().compose(obj.pose)
    probe_local = state.probe_local
    if obj.contact_probe is not None:
        probe_local = grip.apply(obj.truth_keypoints[obj.contact_probe])
    return replace(state, attached=(object_name, grip), probe_local=probe_local)


# ----------------------------------------------------------------------
# grounded-parameter anchoring


class GroundedAnchors:
    """Each grounded value's slot, and one live view of every value.

    A label is world-fixed (its value stays until a grasp), held (kept in
    the gripper frame, re-expressed at each gripper pose) or a robot
    built-in (the gripper pose). `view` gets the world-fixed values when
    a role is added and the others at each current(); `fixed_axes` is a
    live view of the world-fixed axis labels."""

    def __init__(self):
        self.view = GroundedParams()
        self._world = {"keypoints": {}, "axes": {}}   # value in the world frame
        self._held = {"keypoints": {}, "axes": {}}    # value in the gripper frame
        self._robot_labels = []    # (keypoint label, ((axis label, column), ...))
        self.fixed_axes = self._world["axes"].keys()

    def add_robot_role(self, role):
        self._robot_labels.append(
            (f"{role}.{ROBOT_BUILTIN_KEYPOINT}",
             tuple((f"{role}.{axis}", i) for i, axis in enumerate(ROBOT_BUILTIN_AXES))))

    def add_role(self, role, grounded: GroundedParams):
        for kind, values in (("keypoints", grounded.keypoints), ("axes", grounded.axes)):
            view = getattr(self.view, kind)
            for label, value in values.items():
                q = f"{role}.{label}"
                view[q] = self._world[kind][q] = np.asarray(value, dtype=np.float64)

    def attach_role(self, role, ee: Frame):
        """Move a role's world-fixed groundings to the held slot,
        re-expressed in the gripper frame."""
        inv = ee.inverse()
        # roles are skill names, which hold no '.'
        prefix = f"{role}."
        for kind, move in (("keypoints", inv.apply), ("axes", inv.apply_dir)):
            world = self._world[kind]
            for q in [q for q in world if q.startswith(prefix)]:
                self._held[kind][q] = move(world.pop(q))

    def current(self, ee: Frame):
        """Set the live view's held and built-in values for gripper pose
        `ee`, valid until the next call; world-fixed values stay as they
        are. Returns the held values in the order of layout()'s labels."""
        keypoints, axes, held = self.view.keypoints, self.view.axes, []
        rot, origin = ee.rotation, ee.origin
        for q, local in self._held["keypoints"].items():
            keypoints[q] = value = rot @ local + origin
            held.append(value)
        for q, local in self._held["axes"].items():
            axes[q] = value = rot @ local
            held.append(value)
        for keypoint, builtin_axes in self._robot_labels:
            keypoints[keypoint] = ee.origin
            for q, i in builtin_axes:
                axes[q] = ee.rotation[:, i]
        return held

    def layout(self):
        """(world, held, robot) of the tick log until the next grasp: the
        world-fixed values as float lists by kind and label, the (kind,
        label) of each held value, and the robot built-in labels."""
        world = {kind: {q: value.tolist() for q, value in table.items()}
                 for kind, table in self._world.items()}
        held = [(kind, q) for kind, table in self._held.items() for q in table]
        return world, held, self._robot_labels


# ----------------------------------------------------------------------
# whole-skill execution


_POSE_COLS = 12          # ee origin, then its rotation row-major
_STATE_COLS = 21         # the pose, the contact force, twist v and w
_FIRST_ROWS = 1023       # tick rows a phase table starts with; it doubles when full
_INACTIVE = (np.full(3, np.nan), 0.0)   # the (axis_hat, u_hat) logged for no command
_JSON_SPELLING = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}
_TRAJECTORY_COLS = operator.itemgetter(0, 1, 2, 15, 16, 17, 18, 19, 20, 12, 13, 14)


class _PhaseTable:
    """The rows of one phase and what stays fixed over them (see SimLog)."""

    def __init__(self, phase: SkillPhase, t0, ee: Frame, layout):
        self.name, self.t0 = phase.name, t0
        self.world, self.held, self.robot = layout
        self.controllers = [(cls, i + 1, cfg.kind)
                            for cls, cfgs in ((TRANSLATIONAL, phase.translational),
                                              (ROTATIONAL, phase.rotational))
                            for i, cfg in enumerate(cfgs)]
        n, first = len(self.controllers), _STATE_COLS + 3 * len(self.held)
        self.scalars = first + 6 * n     # the first scalar column
        # each controller's first array column (axis) and first scalar column (u)
        self.cols = [(first + 6 * c, self.scalars + 4 * c) for c in range(n)]
        self.rows = np.empty((min(phase.step_budget, _FIRST_ROWS) + 1, self.scalars + 4 * n))
        np.concatenate((ee.origin, ee.rotation.reshape(9)), out=self.rows[0, :_POSE_COLS])
        self.ticks = 0
        self._templates = {}

    def _template(self, flags):
        """(%-template, argument getter) of the lines whose controllers have
        the (active, done, active, done, ...) flags `flags`; the getter picks
        the arguments from (t, *the row's strings, *the previous pose's)."""
        # in no name or label: more NULs than all of them hold together
        mark = "\x00" * (1 + json.dumps([self.name, self.world, self.held, self.robot])
                          .count("\\u0000"))
        width = self.rows.shape[1]

        def vec(*cols):
            return [f"{mark}{c + 1}" for c in cols]

        grounded = {kind: dict(table) for kind, table in self.world.items()}
        for j, (kind, q) in enumerate(self.held):
            grounded[kind][q] = vec(*range(_STATE_COLS + 3 * j, _STATE_COLS + 3 * j + 3))
        for keypoint, builtin_axes in self.robot:
            grounded["keypoints"][keypoint] = vec(width, width + 1, width + 2)
            for q, i in builtin_axes:
                grounded["axes"][q] = vec(width + 3 + i, width + 6 + i, width + 9 + i)
        controllers = []
        for (cls, priority, kind), (col, u), active, done in zip(
                self.controllers, self.cols, flags[::2], flags[1::2]):
            controllers.append({
                "class": cls, "priority": priority, "kind": kind,
                "axis": vec(col, col + 1, col + 2),
                "axis_hat": vec(col + 3, col + 4, col + 5) if active else None,
                "u": vec(u)[0], "u_hat": vec(u + 1)[0],
                "active": active, "done": done,
            })
        skeleton = {
            "phase": self.name,
            "t": f"{mark}0",
            "ee": {"origin": vec(0, 1, 2),
                   "rotation": [vec(3, 4, 5), vec(6, 7, 8), vec(9, 10, 11)]},
            "contact_force": vec(12, 13, 14),
            "twist": {"v": vec(15, 16, 17), "w": vec(18, 19, 20)},
            "controllers": controllers,
            "grounded": grounded,
        }
        pieces = re.split(re.escape(json.dumps(mark)[:-1]) + r'(\d+)"',
                          json.dumps(skeleton, sort_keys=True).replace("%", "%%"))
        template = self._templates[flags] = (
            "%s".join(pieces[::2]) + "\n", operator.itemgetter(*map(int, pieces[1::2])))
        return template

    def lines(self, csv):
        """(JSON line, CSV row or None) of each tick, each ending in a newline."""
        rows = self.rows[:self.ticks + 1]
        flag_cols = [u + k for _, u in self.cols for k in (2, 3)]
        # JSON spells a non-finite value its own way; an inactive controller's
        # NaN axis_hat, which is not printed, takes that path too
        plain = np.isfinite(rows).all(axis=1)
        prev = [_JSON_SPELLING.get(s, s) for s in map(repr, rows[0, :_POSE_COLS].tolist())]
        for k in range(1, self.ticks + 1):
            values = rows[k].tolist()   # a row at a time: no copy of the table as floats
            text = list(map(repr, values))
            js = text if plain[k] else [_JSON_SPELLING.get(s, s) for s in text]
            flags = tuple(values[j] == 1.0 for j in flag_cols)
            template, args = self._templates.get(flags) or self._template(flags)
            t = str(self.t0 + k)
            yield (template % args((t, *js, *prev)),
                   ",".join((t, *_TRAJECTORY_COLS(text))) + "\n" if csv else None)
            prev = js[:_POSE_COLS]


class SimLog:
    """Per-tick trace of a run: one float64 table per phase, formatted as
    JSON lines and trajectory CSV rows in one pass.

    Row k >= 1 of a phase's table is tick k of the phase, whose t is the
    phase's start tick plus k. Its arrays come first: the gripper pose
    after the tick (origin, then rotation row-major), the contact force,
    the twist v and w, each held grounded value as observed at the start
    of the tick, then per controller (translational then rotational, each
    by priority) its axis and axis_hat (NaN when inactive); then its
    scalars, u, u_hat, active and done per controller in the same order.
    Row 0 holds only the pose the phase starts from. The phase's name,
    each controller's class, priority and kind, and the world-fixed
    grounded values are fixed for the phase and written into one
    %-template per combination of active and done flags. The robot
    built-ins (role.pos, .x, .y, .z) of tick k are the pose of row k - 1,
    so they reuse that row's strings. Each float is formatted once with
    repr, non-finite ones as json.dumps spells them, so every line equals
    json.dumps(record, sort_keys=True) of the tick's record.

    `records` is json.loads of every line, which restores each float
    bit for bit; it is built on first read and kept until a tick is
    recorded.
    """

    def __init__(self):
        self._tables = []
        self._records = None

    def begin_phase(self, phase: SkillPhase, t0, ee: Frame, layout):
        """Start the table of `phase`, which starts at tick `t0` from
        gripper pose `ee`; `layout` is GroundedAnchors.layout()."""
        self._tables.append(_PhaseTable(phase, t0, ee, layout))

    def record(self, state: SimState, held, outputs, commands, twist: Twist):
        """Write the next row of the current phase: the state after the
        tick, the held values observed before it, and the tick's
        controller outputs and commands (as run_phase's on_tick gets
        them) and twist."""
        table = self._tables[-1]
        table.ticks += 1
        if table.ticks == len(table.rows):
            table.rows = np.concatenate((table.rows, np.empty_like(table.rows)))
        arrays = [state.ee.origin, state.ee.rotation.ravel(), state.contact_force,
                  twist.v, twist.w, *held]
        scalars = []
        for out, cmd in zip(outputs, commands):
            axis_hat, u_hat = cmd or _INACTIVE
            arrays += (out.primary_axis, axis_hat)
            scalars += (out.action, u_hat, cmd is not None, out.done)
        np.concatenate(arrays, out=table.rows[table.ticks, :table.scalars])
        table.rows[table.ticks, table.scalars:] = scalars
        self._records = None

    def end_phase(self):
        """Free the current table's rows past its last tick."""
        table = self._tables[-1]
        table.rows = table.rows[:table.ticks + 1].copy()

    def _lines(self, csv=False):
        for table in self._tables:
            yield from table.lines(csv)

    @property
    def records(self) -> list:
        if self._records is None:
            self._records = [json.loads(line) for line, _ in self._lines()]
        return self._records

    def write(self, path, csv_path):
        """Write the JSON lines to `path` and the trajectory CSV (t, ee
        origin, twist v and w, contact force) to `csv_path`, as they are formatted."""
        with open(path, "w", encoding="utf-8") as fh, \
                open(csv_path, "w", encoding="utf-8") as csv:
            csv.write("t,x,y,z,vx,vy,vz,wx,wy,wz,fx,fy,fz\n")
            for line, row in self._lines(csv=True):
                fh.write(line)
                csv.write(row)


@dataclass
class RunResult:
    success: bool
    phases: list                  # (phase name, PhaseResult)
    error: str
    log: SimLog
    state: SimState

    def summary(self) -> dict:
        return {
            "success": self.success,
            "phases": [{"name": name, "outcome": res.outcome, "ticks": res.ticks}
                       for name, res in self.phases],
            "error": self.error,
            "ticks_total": self.state.t,
        }


def _check_skill(skill: LiftedSkill, scene: Scene, specs: dict, cfg: RunConfig):
    """Each role's spec, the forward-Euler gain bounds, that each binding
    names a value its role grounds: a keypoint or axis of a spec role's
    spec (ground_spec grounds them all or raises) or a robot role's
    built-in, and that each grasp step's role is one graspable object of
    the scene with the step's keypoint. Violations are config errors,
    raised before any render."""
    grounds = {"keypoints": set(), "axes": set()}
    for role, src in skill.uses:
        if src == ROBOT_ROLE_SOURCE:
            keypoints, axes = (ROBOT_BUILTIN_KEYPOINT,), ROBOT_BUILTIN_AXES
        elif role not in specs:
            raise ConfigError(f"no grounding spec supplied for role {role!r}")
        else:
            keypoints = [kp.label for kp in specs[role].keypoints]
            axes = [ax.label for ax in specs[role].axes]
        grounds["keypoints"].update(f"{role}.{label}" for label in keypoints)
        grounds["axes"].update(f"{role}.{label}" for label in axes)
    for step in skill.steps:
        if not isinstance(step, GraspStep):
            continue
        source = dict(skill.uses).get(step.role)
        if source is None:
            raise ConfigError(f"grasp role {step.role!r} is not declared with 'uses'")
        if source == ROBOT_ROLE_SOURCE:
            raise ConfigError(f"role {step.role!r} is the robot, it cannot be grasped")
        names = specs[step.role].object_names
        if len(names) != 1:
            raise ConfigError(f"role {step.role!r} spans objects {names}, expected one")
        _graspable(scene, names[0], step.keypoint)
    max_k = max((s.stiffness for obj in scene.objects for s in obj.surfaces),
                default=0.0)
    for phase in skill.phases:
        for cls, ctrls in ((TRANSLATIONAL, phase.translational), (ROTATIONAL, phase.rotational)):
            for i, ctrl in enumerate(ctrls):
                if ctrl.gains.kp * cfg.dt > 1.0 or ctrl.gains.kr * cfg.dt > 1.0:
                    raise ConfigError(
                        f"phase {phase.name!r}: gain*dt exceeds 1, integration unstable")
                if ctrl.kind == FORCE_ALIGN and ctrl.gains.kf * max_k * cfg.dt >= 1.0:
                    raise ConfigError(
                        f"phase {phase.name!r}: kf*stiffness*dt >= 1, force loop unstable")
                for kind, label in zip(BINDING_KINDS[ctrl.kind], ctrl.bindings):
                    if label not in grounds[kind]:
                        raise UnresolvedBinding(
                            f"phase {phase.name!r} {cls}[{i}] {ctrl.kind}: binding "
                            f"{label!r} is none of the grounded {kind}")


class SkillRunner:
    """Grounds a lifted skill against a scene and executes its phases.

    Grounding happens once, from the initial render (or supplied feature
    files); afterwards keypoints and axes of grasped objects follow the
    gripper kinematically, which realizes per-phase re-grounding without
    new images existing mid-run.
    """

    def __init__(self, skill: LiftedSkill, scene: Scene, specs: dict,
                 ref_scene: Scene = None, config: RunConfig = None,
                 feature_files=None):
        self.skill = skill
        self.scene = scene
        self.ref_scene = ref_scene
        self.config = config or RunConfig()
        self.specs = specs
        self.feature_files = feature_files
        _check_skill(skill, scene, specs, self.config)
        self.anchors = GroundedAnchors()
        for role, src in skill.uses:
            if src == ROBOT_ROLE_SOURCE:
                self.anchors.add_robot_role(role)
        self.log = SimLog()
        self.state = SimState(ee=scene.ee_start, dt=self.config.dt)
        self._grounded = False
        self._obs = ObservationBundle(self.anchors.view, None, self.anchors.fixed_axes)
        self._held = None   # held values of the last observe(), for its tick's row

    # -- grounding

    def ground_all(self):
        if self._grounded:
            return
        self._grounded = True
        roles = [(role, self.specs[role]) for role, src in self.skill.uses
                 if src != ROBOT_ROLE_SOURCE]
        if self.feature_files is not None:
            ref_grid, tgt_grid, tgt_depth = self.feature_files
        else:
            ref_grid, _ = render_reference(self.ref_scene or self.scene,
                                           [kp for _, spec in roles for kp in spec.keypoints],
                                           self.config.grounding.match.window_radius)
            tgt_grid, tgt_depth = render_synthetic_features(self.scene, noise_tag=1)
        for role, spec in roles:
            try:
                grounded = ground_spec(spec, ref_grid, tgt_grid, tgt_depth,
                                       self.scene.intrinsics, self.config.grounding)
            except TaskAxesError as err:
                raise err.annotate(f"role {role!r}")
            self.anchors.add_role(role, grounded)

    # -- environment protocol for run_phase

    def observe(self) -> ObservationBundle:
        """The one live observation, valid until the next observe(): the
        held and built-in values and the force are set for this tick."""
        self._held = self.anchors.current(self.state.ee)
        self._obs.measured_force = -self.state.contact_force
        return self._obs

    def apply(self, twist: Twist):
        self.state = step_sim(self.state, twist, self.scene)

    # -- execution

    def run(self) -> RunResult:
        error = None
        phases = []
        try:
            self.ground_all()
            for step in self.skill.steps:
                if isinstance(step, GraspStep):
                    # _check_skill made the role's spec span one object
                    obj_name = self.specs[step.role].object_names[0]
                    self.state = grasp(self.state, self.scene, obj_name,
                                       step.keypoint, tol=self.config.grasp_tol)
                    self.anchors.attach_role(step.role, self.state.ee)
                    continue
                self.log.begin_phase(step, self.state.t, self.state.ee,
                                     self.anchors.layout())
                result = run_phase(step, self, self.config.limits, on_tick=lambda *tick:
                                   self.log.record(self.state, self._held, *tick))
                self.log.end_phase()
                phases.append((step.name, result))
                if result.outcome != "done":
                    break
        except TaskAxesError as err:
            error = str(err)
        expected = len(self.skill.phases)
        success = (error is None and len(phases) == expected
                   and all(res.outcome == "done" for _, res in phases))
        return RunResult(success=success, phases=phases, error=error,
                         log=self.log, state=self.state)

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
import zlib
from dataclasses import dataclass, field, replace

import numpy as np

from .controllers import FORCE_ALIGN, Limits, ObservationBundle
from .errors import ConfigError, EmptyScene, GraspTooFar, TaskAxesError, finite, positive
from .features import DepthMask, FeatureGrid, MatchConfig, window_pixels
from .geometry import CameraIntrinsics, Frame, rotvec_to_matrix, unit
from .grounding import GroundedParams, GroundingConfig, ground_spec
from .skill import ROBOT_ROLE_SOURCE, GraspStep, LiftedSkill, Twist, run_phase

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
        self.cloud = np.asarray(self.cloud, dtype=np.float64).reshape(-1, 3)
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
        # +inf passes here and is caught by the render's check of its rows
        if not self.noise_sigma >= 0:
            raise ConfigError(f"noise_sigma must be >= 0, got {self.noise_sigma}")


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
    pixel order, as one compact float64 array; the noise is one normal
    draw of shape (winners, dim) of which the kept rows are added, so a
    pixel's bytes do not depend on `pixels`. The grid stores that array,
    rounded to float32, as its rows: no whole-image array is built.
    """
    intr = scene.intrinsics
    cfg = scene.features
    if not scene.objects or all(obj.cloud.shape[0] == 0 for obj in scene.objects):
        raise EmptyScene("scene has no renderable points")

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

    # z-buffer: the nearest depth per pixel, then the lowest point index
    # among the points at that depth; winners come out in pixel order
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

    keep = slice(None)
    if pixels is not None:
        wanted = np.zeros(size, dtype=bool)
        wanted[pixels] = True
        keep = np.flatnonzero(wanted[won])
    won = won[keep]

    # objects own consecutive ranges of the global point index
    point_idx = point_idx[winners[keep]]
    desc = np.empty((won.size, cfg.dim))
    start = 0
    for obj in scene.objects:
        stop = start + obj.cloud.shape[0]
        sel = (point_idx >= start) & (point_idx < stop)
        if sel.any():
            freqs, phase = _object_basis(obj.name, cfg)
            desc[sel] = np.cos(obj.cloud[point_idx[sel] - start] @ freqs.T + phase)
        start = stop
    if cfg.noise_sigma > 0:
        rng = np.random.default_rng(
            np.random.SeedSequence([cfg.seed, 7919, noise_tag]))
        desc += rng.normal(0.0, cfg.noise_sigma, size=(winners.size, cfg.dim))[keep]
    grid = FeatureGrid.from_rows(intr.height, intr.width, won, desc, np.float32,
                                 {"source": "synthetic", "dim": str(cfg.dim),
                                  "length_scale": str(cfg.length_scale),
                                  "noise_sigma": str(cfg.noise_sigma)})
    return grid, DepthMask(depth=depth.reshape(intr.height, intr.width))


# ----------------------------------------------------------------------
# simulation state


@dataclass
class RunConfig:
    dt: float = 0.005
    grasp_tol: float = 0.005
    limits: Limits = field(default_factory=Limits)
    # synthetic descriptors are exact, so the argmax transfer is too;
    # soft mode stays the default at the matching CLI where noisy
    # real-world grids are the expected input
    grounding: GroundingConfig = field(
        default_factory=lambda: GroundingConfig(match=MatchConfig(mode="hard")))

    def __post_init__(self):
        positive("dt", self.dt)
        positive("grasp_tol", self.grasp_tol)


@dataclass
class SimState:
    """Trusted state of one run: dt comes from a checked RunConfig."""

    ee: Frame
    attached: tuple = None          # (object name, grip Frame: object in ee frame)
    probe_local: np.ndarray = field(default_factory=lambda: np.zeros(3))  # in ee frame
    contact_force: np.ndarray = field(default_factory=lambda: np.zeros(3))
    t: int = 0
    dt: float = RunConfig.dt


def object_pose(scene: Scene, state: SimState, name: str) -> Frame:
    """Current world pose of an object, tracking the gripper if attached."""
    if state.attached is not None and state.attached[0] == name:
        return state.ee.compose(state.attached[1])
    return scene.find(name).pose


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
    rot = rotvec_to_matrix(np.asarray(twist.w, dtype=np.float64) * state.dt)
    ee = Frame._trusted(state.ee.origin + np.asarray(twist.v, dtype=np.float64) * state.dt,
                        rot @ state.ee.rotation)
    probe_world = ee.apply(state.probe_local)
    return SimState(ee, state.attached, state.probe_local,
                    _contact_force(scene, state, probe_world), state.t + 1, state.dt)


def grasp(state: SimState, scene: Scene, object_name: str, keypoint: str,
          tol: float = RunConfig.grasp_tol) -> SimState:
    """Rigidly attach an object when the gripper is at its grasp keypoint."""
    obj = scene.find(object_name)
    if not obj.graspable:
        raise ConfigError(f"object {object_name!r} is not graspable")
    if keypoint not in obj.truth_keypoints:
        raise ConfigError(f"object {object_name!r} has no keypoint {keypoint!r}")
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
    """Tracks where each grounded value lives: world-fixed, gripper-fixed,
    or a robot built-in. Attached entries follow the end effector.

    Each table maps a kind ("keypoints" or "axes") to qualified labels.
    World-fixed values, and the float lists the tick log writes for them,
    are built once at add_role; a grasp moves a role's entries to the
    held table, re-expressed in the gripper frame.
    """

    def __init__(self):
        self._world = {"keypoints": {}, "axes": {}}        # value in the world frame
        self._world_lists = {"keypoints": {}, "axes": {}}  # its float list
        self._held = {"keypoints": {}, "axes": {}}         # value in the gripper frame
        self._robot_labels = []    # (keypoint label, ((axis label, column), ...))

    def add_robot_role(self, role):
        self._robot_labels.append(
            (f"{role}.{ROBOT_BUILTIN_KEYPOINT}",
             tuple((f"{role}.{axis}", i) for i, axis in enumerate(ROBOT_BUILTIN_AXES))))

    def add_role(self, role, grounded: GroundedParams):
        for kind, values in (("keypoints", grounded.keypoints), ("axes", grounded.axes)):
            for label, value in values.items():
                q = f"{role}.{label}"
                self._world[kind][q] = np.asarray(value, dtype=np.float64)
                self._world_lists[kind][q] = self._world[kind][q].tolist()

    def attach_role(self, role, ee: Frame):
        """Re-express a role's world-fixed groundings in the gripper frame."""
        inv = ee.inverse()
        # roles are skill names, which hold no '.'
        prefix = f"{role}."
        for kind, move in (("keypoints", inv.apply), ("axes", inv.apply_dir)):
            world = self._world[kind]
            for q in [q for q in world if q.startswith(prefix)]:
                self._held[kind][q] = move(world.pop(q))
                del self._world_lists[kind][q]

    def current(self, ee: Frame):
        """(GroundedParams, float lists for the tick log) at gripper pose
        `ee`; the world-fixed lists are shared, not rebuilt."""
        values, lists = {}, {}
        for kind, move in (("keypoints", ee.apply), ("axes", ee.apply_dir)):
            values[kind] = dict(self._world[kind])
            lists[kind] = dict(self._world_lists[kind])
            for q, local in self._held[kind].items():
                values[kind][q] = value = move(local)
                lists[kind][q] = value.tolist()
        for keypoint, builtin_axes in self._robot_labels:
            values["keypoints"][keypoint] = ee.origin
            lists["keypoints"][keypoint] = ee.origin.tolist()
            for q, i in builtin_axes:
                values["axes"][q] = axis = ee.rotation[:, i]
                lists["axes"][q] = axis.tolist()
        return GroundedParams(**values), lists


# ----------------------------------------------------------------------
# whole-skill execution


class SimLog:
    """Append-only per-tick trace, serializable as JSON lines."""

    def __init__(self):
        self.records = []

    def append(self, record):
        self.records.append(record)

    def to_jsonl(self) -> str:
        return "".join(json.dumps(r, sort_keys=True) + "\n" for r in self.records)

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(self.to_jsonl())

    @staticmethod
    def read(path):
        with open(path, "r", encoding="utf-8") as fh:
            return [json.loads(line) for line in fh if line.strip()]


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


def _check_stability(skill: LiftedSkill, scene: Scene, cfg: RunConfig):
    """Forward-Euler gain bounds; violations are config errors, not runtime."""
    max_k = max((s.stiffness for obj in scene.objects for s in obj.surfaces),
                default=0.0)
    for phase in skill.phases:
        for ctrl in phase.translational + phase.rotational:
            if ctrl.gains.kp * cfg.dt > 1.0 or ctrl.gains.kr * cfg.dt > 1.0:
                raise ConfigError(
                    f"phase {phase.name!r}: gain*dt exceeds 1, integration unstable")
            if ctrl.kind == FORCE_ALIGN and max_k > 0 \
                    and ctrl.gains.kf * max_k * cfg.dt >= 1.0:
                raise ConfigError(
                    f"phase {phase.name!r}: kf*stiffness*dt >= 1, force loop unstable")


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
        self.robot_roles = {role for role, src in skill.uses if src == ROBOT_ROLE_SOURCE}
        for role, src in skill.uses:
            if src != ROBOT_ROLE_SOURCE and role not in specs:
                raise ConfigError(f"no grounding spec supplied for role {role!r}")
        _check_stability(skill, scene, self.config)
        self.anchors = GroundedAnchors()
        self.log = SimLog()
        self.state = SimState(ee=scene.ee_start, dt=self.config.dt)
        self._grounded = False
        self._grounded_lists = None   # of the last observe(), for its tick record

    # -- grounding

    def _render_inputs(self):
        if self.feature_files is not None:
            return self.feature_files
        # grounding reads the reference only through its keypoint windows
        ref_scene = self.ref_scene or self.scene
        intr = ref_scene.intrinsics
        read = window_pixels([kp.pixel for role, _ in self.skill.uses
                              if role not in self.robot_roles
                              for kp in self.specs[role].keypoints],
                             intr.width, intr.height,
                             self.config.grounding.match.window_radius)
        ref_grid, _ = render_synthetic_features(ref_scene, noise_tag=0, pixels=read)
        tgt_grid, tgt_depth = render_synthetic_features(self.scene, noise_tag=1)
        return ref_grid, tgt_grid, tgt_depth

    def ground_all(self):
        if self._grounded:
            return
        self._grounded = True
        ref_grid, tgt_grid, tgt_depth = self._render_inputs()
        for role, src in self.skill.uses:
            if role in self.robot_roles:
                self.anchors.add_robot_role(role)
                continue
            spec = self.specs[role]
            try:
                grounded = ground_spec(spec, ref_grid, tgt_grid, tgt_depth, None,
                                       self.scene.intrinsics, self.config.grounding)
            except TaskAxesError as err:
                raise err.annotate(f"role {role!r}")
            self.anchors.add_role(role, grounded)

    # -- environment protocol for run_phase

    def observe(self) -> ObservationBundle:
        grounded, self._grounded_lists = self.anchors.current(self.state.ee)
        return ObservationBundle(grounded=grounded, measured_force=-self.state.contact_force)

    def apply(self, twist: Twist):
        self.state = step_sim(self.state, twist, self.scene)

    def _on_tick(self, record):
        record.update({
            "t": self.state.t,
            "ee": {"origin": self.state.ee.origin.tolist(),
                   "rotation": self.state.ee.rotation.tolist()},
            "contact_force": self.state.contact_force.tolist(),
            "grounded": self._grounded_lists,
        })
        self.log.append(record)

    # -- execution

    def _role_object(self, role) -> str:
        if role in self.robot_roles:
            raise ConfigError(f"role {role!r} is the robot, it cannot be grasped")
        names = self.specs[role].object_names
        if len(names) != 1:
            raise ConfigError(f"role {role!r} spans objects {names}, expected one")
        return names[0]

    def run(self) -> RunResult:
        error = None
        phases = []
        try:
            self.ground_all()
            for step in self.skill.steps:
                if isinstance(step, GraspStep):
                    obj_name = self._role_object(step.role)
                    self.state = grasp(self.state, self.scene, obj_name,
                                       step.keypoint, tol=self.config.grasp_tol)
                    self.anchors.attach_role(step.role, self.state.ee)
                    continue
                result = run_phase(step, self, self.config.limits,
                                   on_tick=self._on_tick)
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

"""Prioritized task-axis controller skills with scene grounding.

Lifted skills declare controllers over symbolic keypoints and axes;
grounding binds those symbols to a concrete scene through dense-feature
keypoint matching and local point-cloud geometry; execution projects
lower-priority controller axes into the null space of higher-priority
ones and integrates the summed twist on a simulated end effector.
"""

__version__ = "0.1.0"

from .controllers import (
    ControllerConfig,
    ControllerOutput,
    ControllerState,
    Gains,
    Limits,
    ObservationBundle,
    step_controller,
)
from .features import (
    DepthMask,
    FeatureGrid,
    MatchConfig,
    PixelMatch,
    SimilarityMap,
    cosine_map,
    hard_match,
    match_keypoint,
    read_depth_mask,
    read_feature_grid,
    soft_match,
    window_average,
    window_pixels,
    write_depth_mask,
    write_feature_grid,
)
from .geometry import (
    CameraIntrinsics,
    Frame,
    deproject_pixel,
    project_point,
    rotation_between_axes,
)
from .grounding import (
    AxisSpec,
    GroundedParams,
    GroundingConfig,
    GroundingSpec,
    KeypointRef,
    axis_from_keypoints,
    cloud_from_depth,
    edge_direction,
    ground_keypoint,
    ground_spec,
    spec_from_json,
    spec_to_json,
    surface_normal,
)
from .simulator import (
    RunConfig,
    Scene,
    SceneObject,
    SimLog,
    SimState,
    SkillRunner,
    grasp,
    render_synthetic_features,
    step_sim,
)
from .skill import (
    GraspStep,
    LiftedSkill,
    SkillPhase,
    Twist,
    compose_twist,
    format_skill,
    parse_skill,
    project_actions,
    project_axes,
    run_phase,
)

"""Multi-radar point-cloud fusion simulator.

Simulates a network of indoor radars tracking moving targets and compares
three processing modes over a bandwidth-accounted sidelink: isolated
(no exchange), cooperation (preprocessed point-cloud exchange, pooled
posterior) and federation (Gaussian-mixture parameter exchange, combined
posterior).
"""

from .config import ExperimentConfig, load_config
from .fusion import (
    FitOptions,
    alpha_weights,
    cloud_start,
    extract_targets,
    federated_posterior,
    likelihood_from_cloud,
    motion_prior,
    reconstruct_scene,
)
from .harness import (
    EpochRecord,
    MetricsRecord,
    SensingRecord,
    compute_mae,
    export_csv,
    kl_study,
    run_experiment,
    run_sweep,
    unresolved_probability,
)
from .mixture import (
    DensityGrid,
    GaussianMixture,
    GridSpec,
    choose_components,
    eval_on_grid,
    fit_em,
    kl_divergence,
)
from .scene import ConfigError, Scene, TargetSpec, advance_scene, initial_scene, target_routes
from .sensor import (
    ClusterResult,
    PointCloud,
    RadarModel,
    RadarPose,
    dbscan,
    observe,
    preprocess,
)
from .sidelink import (
    ClockModel,
    LinkStats,
    Message,
    Topology,
    account,
    decode_coop,
    decode_fed,
    deliver,
    encode_coop,
    encode_fed,
)

__version__ = "0.1.0"

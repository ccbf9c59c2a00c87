"""GFlowNet training on finite DAGs with stabilized losses and TV certificates."""

from .envs import (
    DagEnv,
    Hypergrid,
    RegularTree,
    hypergrid_default_r0,
    hypergrid_reward,
    make_env,
    one_more_mode_tree,
    target_distribution,
    true_partition,
)
from .policy import (
    PathBatch,
    PolicyModel,
    exact_terminal_distribution,
    rollout,
    score_paths,
)
from .trainer import TopKBuffer, TrainConfig, Trainer, update_threshold

__version__ = "0.1.0"

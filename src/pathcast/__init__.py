"""pathcast: join datasets in the label space via graph path prediction."""

from .labelgraph import (GraphStats, LabelGraph, NodeKind, build_graph,
                         deserialize, load_graph, save_graph, serialize,
                         stats, validate)
from .model import LabelPathModel, load_model, save_model
from .pathalg import Paths, all_paths_to
from .trainer import TrainConfig, train

__version__ = "0.1.0"

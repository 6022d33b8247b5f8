"""Dataset substrate: model/dataset specs (Table I), synthetic raw-data
generators (Criteo-like RM1 plus production-scale RM2–RM5), the real Criteo
TSV loader, and the train-ready mini-batch containers
(KeyedJaggedTensor-style)."""

from repro.features.specs import ModelSpec, MLPSpec, RECSYS_MODELS, get_model
from repro.features.synthetic import SyntheticTableGenerator, generate_raw_table
from repro.features.criteo import load_criteo_tsv, dump_criteo_tsv
from repro.features.minibatch import KeyedJaggedTensor, MiniBatch

__all__ = [
    "ModelSpec",
    "MLPSpec",
    "RECSYS_MODELS",
    "get_model",
    "SyntheticTableGenerator",
    "generate_raw_table",
    "load_criteo_tsv",
    "dump_criteo_tsv",
    "KeyedJaggedTensor",
    "MiniBatch",
]

"""Dataset substrate: model/dataset specs (Table I), synthetic raw-data
generators (Criteo-like RM1 plus production-scale RM2–RM5), the real Criteo
TSV loader, and the train-ready mini-batch containers
(KeyedJaggedTensor-style)."""

from repro.lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.features.specs": (
        "ModelSpec", "MLPSpec", "RECSYS_MODELS", "get_model",
    ),
    "repro.features.synthetic": (
        "SyntheticTableGenerator", "generate_raw_table",
    ),
    "repro.features.criteo": ("load_criteo_tsv", "dump_criteo_tsv"),
    "repro.features.minibatch": ("KeyedJaggedTensor", "MiniBatch"),
})

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

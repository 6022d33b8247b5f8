"""One contract, eleven records.

Every dict-round-trippable record rebuilds itself from its own
``to_dict()`` output and rejects a payload carrying a key it does not
know — with its tier's own error type and a message naming the key and
the accepted ones.  The message texts below are pinned literally: the
check lives in one helper (:func:`repro.errors.strict_keys`), and a
change there must not reword any record's error.
"""

import dataclasses

import pytest

from repro.api import ExperimentRun, PreprocessJob, RunResult, Scenario
from repro.batch import BatchPolicy
from repro.errors import ConfigurationError, ServeError
from repro.faults.plan import FaultPlan, FaultRule
from repro.fleet.trace import JobArrival, Trace
from repro.serve.records import JobRecord, StageEvent

_JOB = PreprocessJob("RM1", num_rows=256, num_shards=2, processes=1, seed=3)
_RULE = FaultRule("hung-stage", rate=0.5, match={"stage": "extract"}, delay_s=2.0)
_ARRIVAL = JobArrival("job-1", "RM5", num_gpus=8, duration_s=60.0, submit_s=1.5)
_STAGE = StageEvent("extract", "completed", at=2.0, elapsed_s=0.25,
                    metrics={"bytes_read": 10})


def _run_result() -> RunResult:
    return Scenario(model="RM1", system="PreSto", num_gpus=1, num_batches=20).run()


#: class -> (a non-default instance or its factory, error type,
#:           the exact message for the payload key ``bogus``)
RECORDS = {
    Scenario: (
        Scenario(model="RM5", system="Disagg", num_gpus=2, num_batches=50,
                 num_workers=3, calibration={"cpu_batch_overhead": 20e-3}),
        ConfigurationError,
        "unknown scenario keys ['bogus']; expected ['calibration', 'model', "
        "'num_batches', 'num_gpus', 'num_workers', 'queue_capacity', "
        "'system']",
    ),
    RunResult: (
        _run_result,
        ConfigurationError,
        "unknown RunResult keys ['bogus']; expected a subset of "
        "['capex_dollars', 'first_batch_time', 'gpu_utilization', 'headroom', "
        "'num_batches', 'num_workers', 'power_watts', "
        "'preprocessing_throughput', 'scenario', 'steady_state_utilization', "
        "'training_demand', 'training_throughput', 'training_time', "
        "'wait_time', 'wall_time', 'worker_throughput']",
    ),
    ExperimentRun: (
        ExperimentRun("fig3", params={"model": "RM1"}),
        ConfigurationError,
        "unknown run keys ['bogus']; expected ['calibration', 'experiment', "
        "'params']",
    ),
    PreprocessJob: (
        _JOB,
        ConfigurationError,
        "unknown preprocess job keys ['bogus']; expected ['hash_seed', "
        "'model', 'num_rows', 'num_shards', 'processes', 'seed']",
    ),
    BatchPolicy: (
        BatchPolicy(max_retries=3, task_timeout_s=2.5, failure_mode="degrade",
                    processes=2),
        ConfigurationError,
        "unknown BatchPolicy keys ['bogus']; expected a subset of "
        "['backoff_s', 'failure_mode', 'max_retries', 'processes', "
        "'task_timeout_s']",
    ),
    FaultRule: (
        _RULE,
        ConfigurationError,
        "unknown FaultRule keys ['bogus']; expected a subset of ['action', "
        "'delay_s', 'key', 'match', 'max_fires', 'point', 'rate']",
    ),
    FaultPlan: (
        FaultPlan(seed=7, rules=(_RULE, FaultRule("torn-write", max_fires=1))),
        ConfigurationError,
        "unknown FaultPlan keys ['bogus']; expected a subset of ['rules', "
        "'seed']",
    ),
    JobArrival: (
        _ARRIVAL,
        ConfigurationError,
        "unknown JobArrival keys ['bogus']; expected a subset of "
        "['duration_s', 'job_id', 'model', 'num_gpus', 'priority', "
        "'submit_s']",
    ),
    Trace: (
        Trace("diurnal", 11, (_ARRIVAL,)),
        ConfigurationError,
        "unknown Trace keys ['bogus']; expected a subset of ['arrivals', "
        "'kind', 'seed']",
    ),
    StageEvent: (
        _STAGE,
        ServeError,
        "unknown StageEvent keys ['bogus']; expected a subset of ['at', "
        "'elapsed_s', 'error', 'metrics', 'stage', 'status']",
    ),
    JobRecord: (
        JobRecord("job-000001", _JOB, source="watch", state="completed",
                  submitted_at=1.0, started_at=1.5, completed_at=2.5,
                  attempts=1, stages=(_STAGE,), digest="abc123"),
        ServeError,
        "unknown JobRecord keys ['bogus']; expected a subset of ['attempts', "
        "'completed_at', 'digest', 'error', 'job', 'job_id', 'source', "
        "'stages', 'started_at', 'state', 'submitted_at']",
    ),
}

CLASSES = sorted(RECORDS, key=lambda cls: cls.__name__)


def _instance(cls):
    instance = RECORDS[cls][0]
    return instance() if callable(instance) else instance


def test_the_contract_covers_every_record():
    assert len(RECORDS) == 11


@pytest.mark.parametrize("cls", CLASSES, ids=lambda cls: cls.__name__)
def test_round_trip_is_exact(cls):
    record = _instance(cls)
    rebuilt = cls.from_dict(record.to_dict())
    assert rebuilt == record
    assert rebuilt.to_dict() == record.to_dict()


@pytest.mark.parametrize("cls", CLASSES, ids=lambda cls: cls.__name__)
def test_unknown_key_is_the_records_own_typed_error(cls):
    _, error, message = RECORDS[cls]
    payload = {**_instance(cls).to_dict(), "bogus": 1}
    with pytest.raises(error) as excinfo:
        cls.from_dict(payload)
    assert type(excinfo.value) is error
    assert str(excinfo.value) == message


@pytest.mark.parametrize("cls", CLASSES, ids=lambda cls: cls.__name__)
def test_from_dict_does_not_mutate_its_input(cls):
    payload = _instance(cls).to_dict()
    before = repr(payload)
    cls.from_dict(payload)
    assert repr(payload) == before


#: every integer field a record validates.  ``bool`` subclasses ``int``, so a
#: JSON ``true`` used to pass for a count of one (and was journaled as
#: ``true``); the one predicate is :func:`repro.errors.is_int`.
INTEGER_FIELDS = [
    (Scenario, "num_gpus"), (Scenario, "num_batches"),
    (Scenario, "queue_capacity"), (Scenario, "num_workers"),
    (PreprocessJob, "num_rows"), (PreprocessJob, "num_shards"),
    (PreprocessJob, "processes"), (PreprocessJob, "seed"),
    (BatchPolicy, "max_retries"), (BatchPolicy, "processes"),
    (FaultRule, "max_fires"), (FaultPlan, "seed"),
    (JobArrival, "num_gpus"), (JobArrival, "priority"), (Trace, "seed"),
    (JobRecord, "attempts"),
]


@pytest.mark.parametrize(
    "cls, field", INTEGER_FIELDS, ids=[f"{c.__name__}.{f}" for c, f in INTEGER_FIELDS]
)
def test_true_is_not_a_count(cls, field):
    error = RECORDS[cls][1]
    payload = {**_instance(cls).to_dict(), field: True}
    with pytest.raises(error) as excinfo:
        cls.from_dict(payload)
    assert type(excinfo.value) is error
    assert field in str(excinfo.value) and "True" in str(excinfo.value)


def _required_fields(cls):
    return [
        f.name for f in dataclasses.fields(cls)
        if f.default is dataclasses.MISSING
        and f.default_factory is dataclasses.MISSING
    ]


#: payloads no record can be read from: a journal line, a dropped spec file or
#: a protocol frame holding one of these used to escape as a bare
#: ``TypeError`` / ``KeyError`` instead of the record's own error.  The last
#: three are a FaultPlan, a Trace and a JobRecord whose list field is a
#: number; every other record rejects their keys.
BAD_SHAPES = {
    "int": 42, "null": None, "pairs": [["model", "RM1"]], "empty": {},
    "rules-int": {"seed": 1, "rules": 42},
    "arrivals-int": {"kind": "diurnal", "seed": 1, "arrivals": 42},
    "stages-int": {"job_id": "j", "job": {"model": "RM1"}, "stages": 42},
}


@pytest.mark.parametrize("shape", sorted(BAD_SHAPES))
@pytest.mark.parametrize("cls", CLASSES, ids=lambda cls: cls.__name__)
def test_a_malformed_payload_is_the_records_own_typed_error(cls, shape):
    payload = BAD_SHAPES[shape]
    if shape == "empty" and not _required_fields(cls):
        assert cls.from_dict(payload) == cls()  # every field has a default
        return
    error = RECORDS[cls][1]
    with pytest.raises(error) as excinfo:
        cls.from_dict(payload)
    assert type(excinfo.value) is error


@pytest.mark.parametrize(
    "cls, field",
    [(cls, name) for cls in CLASSES for name in _required_fields(cls)],
    ids=lambda value: getattr(value, "__name__", value),
)
def test_a_missing_required_key_is_named(cls, field):
    error = RECORDS[cls][1]
    payload = _instance(cls).to_dict()
    del payload[field]
    with pytest.raises(error, match=f"missing required keys .*'{field}'"):
        cls.from_dict(payload)

"""Tests for the unified experiment API (repro.api.experiment):

* registry completeness — every experiment module registers exactly once,
  ids/titles are unique, report order matches paper order;
* ``ExperimentRun`` validation and dict round-trips;
* result dict round-trips for every registered experiment (exact types,
  byte-identical render);
* ``run_experiments`` in input order, a cached ``render_report``
  byte-identical to a fresh one;
* ``RunStore`` hit/miss/force semantics;
* ``encode_value``'s exact-type fast path against the generic encoder;
* the CLI surfaces (list/run/report/export) on top of it.
"""

import dataclasses
import enum
import json
import pkgutil
import sys
from collections.abc import Mapping
from typing import NamedTuple, Optional, Tuple

import pytest

import repro.experiments
from repro.api import (
    EXPERIMENT_REGISTRY,
    BatchPolicy,
    ExperimentResult,
    ExperimentRun,
    RunStore,
    available_experiments,
    get_experiment,
    register_experiment,
    run_experiments,
)
from repro.api.experiment import decode_value, encode_value
from repro.cli import main as cli_main
from repro.errors import ConfigurationError
from repro.experiments import report as report_mod

#: modules in repro/experiments/ that are harness plumbing, not experiments
NON_EXPERIMENT_MODULES = {"common", "report"}


def all_experiment_modules():
    return sorted(
        name
        for _, name, _ in pkgutil.iter_modules(repro.experiments.__path__)
        if name not in NON_EXPERIMENT_MODULES
    )


@pytest.fixture(scope="module")
def results_by_id():
    """One fresh result per registered experiment (shared, they're cheap)."""
    return {
        spec.id: ExperimentRun(spec.id).run()
        for spec in EXPERIMENT_REGISTRY.experiments()
    }


class TestRegistryCompleteness:
    def test_twenty_two_experiments(self):
        # 13 figures/tables + 7 ablations + 2 fleet experiments
        assert len(EXPERIMENT_REGISTRY) == 22

    def test_every_module_registered_exactly_once(self):
        """Each experiment module contributes exactly one registration."""
        modules = [spec.module for spec in EXPERIMENT_REGISTRY.experiments()]
        expected = [
            f"repro.experiments.{name}" for name in all_experiment_modules()
        ]
        assert sorted(modules) == sorted(expected)
        assert len(modules) == len(set(modules))

    def test_ids_and_titles_unique(self):
        specs = EXPERIMENT_REGISTRY.experiments()
        assert len({s.id for s in specs}) == len(specs)
        assert len({s.title for s in specs}) == len(specs)

    def test_report_order_matches_paper_order(self):
        assert EXPERIMENT_REGISTRY.titles() == (
            "Figure 3", "Figure 4", "Figure 5", "Figure 6",
            "Table I", "Table II",
            "Figure 11", "Figure 12", "Figure 13", "Figure 14",
            "Figure 15", "Figure 16", "Figure 17",
            "Ablation: row vs columnar", "Ablation: double buffering",
            "Ablation: unit lane sweep", "Sensitivity: link speed",
            "Fleet: network contention", "Sensitivity: batch size",
            "Fleet: multi-job scheduling",
            "Fleet TCO: diurnal trace, autoscaled",
            "Fleet resilience: failure injection",
        )

    def test_kind_filters(self):
        assert len(EXPERIMENT_REGISTRY.ids("figure")) == 11
        assert EXPERIMENT_REGISTRY.ids("table") == ("table1", "table2")
        assert len(EXPERIMENT_REGISTRY.ids("ablation")) == 9
        assert available_experiments() == EXPERIMENT_REGISTRY.ids()

    def test_runners_keep_working_as_plain_functions(self):
        """Registration leaves module-level run() untouched (thin shim)."""
        from repro.experiments import table1_models

        assert table1_models.run is get_experiment("table1").runner
        assert table1_models.run().matches_paper


class TestRegistryLookup:
    def test_lookup_by_title_and_case(self):
        assert EXPERIMENT_REGISTRY.canonical("Figure 3") == "fig3"
        assert EXPERIMENT_REGISTRY.canonical("FIG3") == "fig3"
        assert EXPERIMENT_REGISTRY.canonical("table i") == "table1"
        assert "fig3" in EXPERIMENT_REGISTRY
        assert "nope" not in EXPERIMENT_REGISTRY

    def test_unknown_id_lists_known(self):
        with pytest.raises(ConfigurationError, match="fig3"):
            EXPERIMENT_REGISTRY.get("fig99")

    def test_duplicate_registration_rejected(self):
        spec = get_experiment("fig3")
        with pytest.raises(ConfigurationError, match="already registered"):
            EXPERIMENT_REGISTRY.register(
                "fig3", spec.runner, title="X", kind="figure", order=1
            )
        with pytest.raises(ConfigurationError, match="already registered"):
            EXPERIMENT_REGISTRY.register(
                "fig3b", spec.runner, title="Figure 3", kind="figure", order=1
            )

    def test_replace_cannot_steal_another_ids_title(self):
        spec = get_experiment("fig4")
        with pytest.raises(ConfigurationError, match="title"):
            EXPERIMENT_REGISTRY.register(
                "fig4", spec.runner, title="Figure 3", kind="figure",
                order=20, replace=True,
            )
        # replacing an id under its own title stays allowed
        EXPERIMENT_REGISTRY.register(
            "fig4", spec.runner, title="Figure 4", kind="figure",
            order=20, replace=True,
        )
        assert get_experiment("fig4").title == "Figure 4"

    def test_register_and_unregister_custom(self):
        from repro.experiments.fig3_colocated import Fig3Result, run as fig3_run

        def run_custom(model: str = "RM1") -> Fig3Result:
            return fig3_run(model)

        register_experiment(
            "custom-test", title="Custom test", kind="ablation", order=999
        )(run_custom)
        try:
            assert "custom-test" in EXPERIMENT_REGISTRY
            assert EXPERIMENT_REGISTRY.ids()[-1] == "custom-test"
            result = ExperimentRun("custom-test").run()
            assert result.rows()
        finally:
            EXPERIMENT_REGISTRY.unregister("custom-test")
        assert "custom-test" not in EXPERIMENT_REGISTRY

    def test_bad_registrations_rejected(self):
        from repro.experiments.fig3_colocated import Fig3Result

        def no_annotation(model: str = "RM1"):
            pass

        with pytest.raises(ConfigurationError, match="return type"):
            register_experiment("t", title="T", kind="figure", order=1)(
                no_annotation
            )

        def no_default(model) -> Fig3Result:
            pass

        with pytest.raises(ConfigurationError, match="default"):
            register_experiment("t", title="T", kind="figure", order=1)(
                no_default
            )

        def fine(model: str = "RM1") -> Fig3Result:
            pass

        with pytest.raises(ConfigurationError, match="kind"):
            register_experiment("t", title="T", kind="plot", order=1)(fine)


class TestPluginHook:
    def test_repro_experiments_env_loads_modules(self, tmp_path, monkeypatch):
        module = tmp_path / "my_plugin_experiment.py"
        module.write_text(
            "from repro.experiments.fig3_colocated import Fig3Result, run as base\n"
            "from repro.api import register_experiment\n"
            "@register_experiment('plugin-test', title='Plugin test',\n"
            "                     kind='ablation', order=997)\n"
            "def run(model: str = 'RM1') -> Fig3Result:\n"
            "    return base(model)\n"
        )
        monkeypatch.syspath_prepend(str(tmp_path))
        monkeypatch.setenv("REPRO_EXPERIMENTS", "my_plugin_experiment")
        try:
            assert "plugin-test" in available_experiments()
            assert ExperimentRun("plugin-test").run().model == "RM1"
        finally:
            EXPERIMENT_REGISTRY.unregister("plugin-test")
            sys.modules.pop("my_plugin_experiment", None)

    def test_unimportable_plugin_module_is_an_error(self, monkeypatch):
        monkeypatch.setenv("REPRO_EXPERIMENTS", "definitely.not.a.module")
        with pytest.raises(ConfigurationError, match="REPRO_EXPERIMENTS"):
            available_experiments()

    def test_blank_entries_ignored(self, monkeypatch):
        monkeypatch.setenv("REPRO_EXPERIMENTS", " , ,")
        assert len(available_experiments()) == 22


class TestExperimentRun:
    def test_validates_experiment_id(self):
        with pytest.raises(ConfigurationError, match="unknown experiment"):
            ExperimentRun("fig99")

    def test_title_resolves_to_id(self):
        assert ExperimentRun("Figure 3").experiment == "fig3"

    def test_unknown_param_rejected(self):
        with pytest.raises(ConfigurationError, match="no parameter"):
            ExperimentRun("fig3", params={"bogus": 1})

    def test_ill_typed_param_rejected(self):
        with pytest.raises(ConfigurationError, match="must be a string"):
            ExperimentRun("fig3", params={"model": 5})
        with pytest.raises(ConfigurationError, match="must be an int"):
            ExperimentRun("abl-row", params={"seed": "zero"})

    def test_unknown_calibration_field_rejected(self):
        with pytest.raises(ConfigurationError, match="calibration"):
            ExperimentRun("fig3", calibration={"warp_speed": 9.0})

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_calibration_rejected(self, value):
        with pytest.raises(ConfigurationError, match="must be finite"):
            ExperimentRun("fig4", calibration={"cpu_log_per_element": value})

    def test_calibration_on_calibrationless_experiment_rejected(self):
        run = ExperimentRun(
            "table1", calibration={"cpu_log_per_element": 10e-9}
        )
        with pytest.raises(ConfigurationError, match="does not take"):
            run.run()

    def test_params_change_results(self):
        rm5 = ExperimentRun("fig3").run()
        rm1 = ExperimentRun("fig3", params={"model": "RM1"}).run()
        assert rm5.model == "RM5" and rm1.model == "RM1"

    def test_calibration_overrides_change_results(self):
        base = ExperimentRun("fig4").run()
        slow = ExperimentRun(
            "fig4",
            calibration={"cpu_log_per_element": 1000e-9},
        ).run()
        assert slow.cores["RM5"] > base.cores["RM5"]

    def test_mix_param_freezes_lists(self):
        run = ExperimentRun(
            "abl-fleet", params={"mix": [["RM1", 1], ["RM5", 2]]}
        )
        assert dict(run.params)["mix"] == (("RM1", 1), ("RM5", 2))
        assert run.run().num_jobs == 3

    def test_label_and_digest(self):
        plain = ExperimentRun("fig3")
        custom = ExperimentRun("fig3", params={"model": "RM1"})
        assert plain.label == "fig3"
        assert custom.label == "fig3(model=RM1)"
        assert plain.digest != custom.digest
        # digest keys the *effective* params: explicit default == implicit
        assert ExperimentRun("fig3", params={"model": "RM5"}).digest == plain.digest

    def test_dict_round_trip_every_experiment(self):
        for spec in EXPERIMENT_REGISTRY.experiments():
            run = ExperimentRun(spec.id)
            data = json.loads(json.dumps(run.to_dict()))
            assert ExperimentRun.from_dict(data) == run

    def test_dict_round_trip_with_params_and_calibration(self):
        run = ExperimentRun(
            "abl-batch",
            params={"model": "RM3"},
            calibration={"cpu_log_per_element": 123e-9},
        )
        data = json.loads(json.dumps(run.to_dict()))
        back = ExperimentRun.from_dict(data)
        assert back == run
        assert back.digest == run.digest

    def test_from_dict_rejects_unknown_keys(self):
        with pytest.raises(ConfigurationError, match="unknown run keys"):
            ExperimentRun.from_dict({"experiment": "fig3", "bogus": 1})


class TestResultRoundTrips:
    @pytest.mark.parametrize("experiment_id", list(available_experiments()))
    def test_result_round_trip(self, results_by_id, experiment_id):
        """to_dict -> JSON -> from_dict restores the exact result."""
        result = results_by_id[experiment_id]
        assert isinstance(result, ExperimentResult)
        data = json.loads(json.dumps(result.to_dict()))
        back = type(result).from_dict(data)
        assert back == result
        assert back.render() == result.render()
        assert back.rows() == result.rows()
        assert [c.render() for c in back.claims()] == [
            c.render() for c in result.claims()
        ]

    @pytest.mark.parametrize("experiment_id", list(available_experiments()))
    def test_columns_match_rows(self, results_by_id, experiment_id):
        result = results_by_id[experiment_id]
        columns = result.columns()
        rows = result.rows()
        assert columns and rows
        assert all(len(row) == len(columns) for row in rows)

    def test_codec_preserves_tuple_and_int_keys(self):
        # the shapes JSON can't express natively, exercised directly
        from typing import Dict, Tuple

        value = {("RM1", "op"): 1.5, ("RM5", "log"): 2.5}
        hint = Dict[Tuple[str, str], float]
        assert decode_value(hint, json.loads(json.dumps(encode_value(value)))) == value
        value2 = {"RM1": {1: 1.0, 64: 64.0}}
        hint2 = Dict[str, Dict[int, float]]
        assert (
            decode_value(hint2, json.loads(json.dumps(encode_value(value2))))
            == value2
        )



def generic_encode(value):
    """``encode_value`` before its exact-type dispatch: the reference."""
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {
            f.name: generic_encode(getattr(value, f.name))
            for f in dataclasses.fields(value)
        }
    if isinstance(value, Mapping):
        if all(isinstance(k, str) for k in value):
            return {k: generic_encode(v) for k, v in value.items()}
        return [[generic_encode(k), generic_encode(v)] for k, v in value.items()]
    if isinstance(value, (list, tuple)):
        return [generic_encode(v) for v in value]
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    raise ConfigurationError(f"cannot encode {value!r}")


class Level(enum.IntEnum):
    LOW = 1
    HIGH = 2


class Point(NamedTuple):
    x: int
    y: float


@dataclasses.dataclass(frozen=True)
class Leaf:
    name: str
    level: Level
    weight: Optional[float] = None


@dataclasses.dataclass(frozen=True)
class Tree:
    leaves: Tuple[Leaf, ...]
    by_id: dict
    point: Point
    flags: list


class TestEncodeFastPath:
    VALUES = [
        True, False, 0, -7, 2**70, Level.HIGH, 1.5, float("inf"), "", "RM5",
        None, Point(3, 4.5), (1, (2, [3, None])), [Level.LOW, "a"],
        Leaf("a", Level.LOW),
        Tree(
            leaves=(Leaf("a", Level.LOW, 0.5), Leaf("b", Level.HIGH)),
            by_id={1: Leaf("c", Level.LOW), 2: None},
            point=Point(1, 2.0),
            flags=[True, {"nested": Leaf("d", Level.HIGH)}],
        ),
        {"a": 1, "b": (2.0, None)},
        {1: "one", 64: "sixty-four"},
        {("RM1", "op"): 1.5, ("RM5", "log"): Point(0, 0.0)},
    ]

    @pytest.mark.parametrize("value", VALUES, ids=repr)
    def test_same_output_and_types_as_generic(self, value):
        for _ in range(2):  # the second encode reads the field-name cache
            fast, slow = encode_value(value), generic_encode(value)
            assert fast == slow
            assert json.dumps(fast) == json.dumps(slow)
            assert type(fast) is type(slow)

    def test_int_enum_and_bool_keep_their_identity(self):
        assert encode_value(Level.HIGH) is Level.HIGH
        assert encode_value(True) is True

    @pytest.mark.parametrize(
        "value", [Leaf, Tree, object(), {1, 2}, b"x"],
        # a bare object's repr carries its address: name it stably
        ids=lambda value: "object()" if type(value) is object else repr(value),
    )
    def test_unencodable_values_raise(self, value):
        with pytest.raises(ConfigurationError, match="cannot encode"):
            encode_value(value)


class TestReportBatch:
    def test_run_experiments_order_is_input_order(self):
        runs = [ExperimentRun("table1"), ExperimentRun("fig3"), ExperimentRun("table2")]
        results = run_experiments(runs)
        assert type(results[0]).__name__ == "Table1Result"
        assert type(results[1]).__name__ == "Fig3Result"
        assert type(results[2]).__name__ == "Table2Result"

    def test_cached_report_byte_identical(self, tmp_path):
        store = RunStore(tmp_path)
        serial = report_mod.render_report(report_mod.run_all())
        # the first store run populates, the second replays
        warm = report_mod.render_report(report_mod.run_all(store=store))
        cached = report_mod.render_report(report_mod.run_all(store=store))
        assert warm == serial
        assert cached == serial

    def test_run_all_kinds_filter(self):
        tables = report_mod.run_all(kinds=["table"])
        assert list(tables) == ["Table I", "Table II"]
        no_abl = report_mod.run_all(include_ablations=False)
        assert len(no_abl) == 13

    def test_report_payload_scoreboard(self):
        results = report_mod.run_all(kinds=["table"])
        payload = report_mod.report_payload(results)
        assert [e["id"] for e in payload["experiments"]] == ["table1", "table2"]
        assert payload["scoreboard"]["total"] >= payload["scoreboard"]["held"]
        json.dumps(payload)  # JSON-able all the way down


def fetch(store, run, force=False):
    """``(result, hit)`` for one run through ``run_experiments``' cache
    cycle: a hit is replayed from ``store`` without an attempt."""
    (outcome,) = run_experiments(
        [run], store=store, force=force,
        policy=BatchPolicy(failure_mode="degrade"),
    )
    assert outcome.ok, outcome.error
    return outcome.result, outcome.attempts == 0


class TestRunStore:
    def test_miss_then_hit(self, tmp_path):
        store = RunStore(tmp_path)
        run = ExperimentRun("table1")
        assert store.load(run) is None  # miss
        result, hit = fetch(store, run)
        assert not hit
        assert store.path(run).exists()
        replay, hit2 = fetch(store, run)
        assert hit2
        assert replay == result
        assert replay.render() == result.render()

    def test_force_reexecutes_but_still_saves(self, tmp_path):
        store = RunStore(tmp_path)
        run = ExperimentRun("table1")
        fetch(store, run)
        before = store.path(run).stat().st_mtime_ns
        result, hit = fetch(store, run, force=True)
        assert not hit
        assert store.path(run).stat().st_mtime_ns >= before

    def test_distinct_params_distinct_entries(self, tmp_path):
        store = RunStore(tmp_path)
        run_a = ExperimentRun("fig3")
        run_b = ExperimentRun("fig3", params={"model": "RM1"})
        fetch(store, run_a)
        fetch(store, run_b)
        assert store.path(run_a) != store.path(run_b)
        assert store.load(run_a).model == "RM5"
        assert store.load(run_b).model == "RM1"

    def test_calibration_keys_the_cache(self, tmp_path):
        store = RunStore(tmp_path)
        run_a = ExperimentRun("fig4")
        run_b = ExperimentRun(
            "fig4", calibration={"cpu_log_per_element": 1000e-9}
        )
        assert run_a.digest != run_b.digest
        fetch(store, run_a)
        assert store.load(run_b) is None

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        store = RunStore(tmp_path)
        run = ExperimentRun("table1")
        fetch(store, run)
        store.path(run).write_text("{not json")
        assert store.load(run) is None
        result, hit = fetch(store, run)  # transparently re-runs + overwrites
        assert not hit
        assert store.load(run) == result

    def test_non_object_json_entry_is_a_miss(self, tmp_path):
        store = RunStore(tmp_path)
        run = ExperimentRun("table1")
        fetch(store, run)
        store.path(run).write_text("[1, 2, 3]")  # valid JSON, wrong shape
        assert store.load(run) is None

    def test_stale_format_is_a_miss(self, tmp_path):
        store = RunStore(tmp_path)
        run = ExperimentRun("table1")
        fetch(store, run)
        payload = json.loads(store.path(run).read_text())
        payload["format"] = -1
        store.path(run).write_text(json.dumps(payload))
        assert store.load(run) is None

    def test_other_package_version_is_a_miss(self, tmp_path):
        # results computed by a different repro release never replay
        store = RunStore(tmp_path)
        run = ExperimentRun("table1")
        fetch(store, run)
        payload = json.loads(store.path(run).read_text())
        payload["version"] = "0.0.0-other"
        store.path(run).write_text(json.dumps(payload))
        assert store.load(run) is None

    def test_save_leaves_no_temp_files(self, tmp_path):
        store = RunStore(tmp_path)
        run = ExperimentRun("table1")
        fetch(store, run)
        fetch(store, run, force=True)
        leftovers = list(store.path(run).parent.glob("*.tmp"))
        assert leftovers == []

    def test_unwritable_store_degrades_to_uncached(self, tmp_path):
        # caching is best-effort: results already computed must survive
        blocker = tmp_path / "not-a-dir"
        blocker.write_text("in the way")
        store = RunStore(blocker / "cache")
        with pytest.warns(RuntimeWarning, match="could not cache"):
            results = run_experiments([ExperimentRun("table1")], store=store)
        assert results[0].matches_paper

    def test_run_experiments_mixes_hits_and_misses(self, tmp_path):
        store = RunStore(tmp_path)
        warm = ExperimentRun("table1")
        cold = ExperimentRun("table2")
        fetch(store, warm)
        results = run_experiments([warm, cold], store=store)
        assert type(results[0]).__name__ == "Table1Result"
        assert type(results[1]).__name__ == "Table2Result"
        assert store.load(cold) is not None  # miss was saved


class TestCliSurface:
    def test_list_filters_and_json(self, capsys):
        assert cli_main(["list", "--only", "tables", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert [e["id"] for e in payload] == ["table1", "table2"]

    def test_list_rejects_bad_only(self):
        with pytest.raises(SystemExit, match="--only"):
            cli_main(["list", "--only", "sketches"])

    def test_run_set_param(self, capsys):
        assert cli_main(["run", "fig3", "--set", "model=RM1"]) == 0
        assert "(RM1)" in capsys.readouterr().out

    def test_run_set_calibration_field(self, capsys):
        assert cli_main(
            ["run", "fig4", "--set", "cpu_log_per_element=0.000001"]
        ) == 0
        assert "Figure 4" in capsys.readouterr().out

    def test_run_set_unknown_name_exits(self):
        with pytest.raises(SystemExit, match="no listed experiment"):
            cli_main(["run", "fig3", "--set", "bogus=1"])

    def test_run_set_with_multiple_ids_applies_where_accepted(self, capsys):
        # fig3 takes `model`, table1 takes no params: the override applies
        # to fig3 only instead of erroring out the whole invocation
        assert cli_main(["run", "fig3", "table1", "--set", "model=RM1"]) == 0
        out = capsys.readouterr().out
        assert "(RM1)" in out and "Table I" in out

    def test_run_set_calibration_skips_calibrationless_ids(self, capsys):
        # fig4 takes calibration, table1 does not; the override must not
        # break table1, and must not error when ONE listed id accepts it
        assert cli_main(
            ["run", "fig4", "table1", "--json",
             "--set", "cpu_log_per_element=0.000001"]
        ) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload[0]["run"]["calibration"] == {
            "cpu_log_per_element": 0.000001
        }
        assert payload[1]["run"]["calibration"] == {}

    def test_run_set_consumed_by_no_listed_id_exits(self):
        # table1/table2 take neither params nor calibration
        with pytest.raises(SystemExit, match="--set"):
            cli_main(["run", "table1", "table2",
                      "--set", "cpu_log_per_element=0.000001"])

    def test_run_json_serializes_results(self, capsys):
        assert cli_main(["run", "table1", "table2", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert [e["id"] for e in payload] == ["table1", "table2"]
        for entry in payload:
            assert entry["columns"]
            assert entry["rows"]
            assert "result" in entry

    def test_report_only_json_scoreboard(self, capsys):
        assert cli_main(["report", "--only", "tables", "--json", "--no-cache"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert {e["kind"] for e in payload["experiments"]} == {"table"}
        assert payload["scoreboard"]["total"] > 0

    def test_report_cache_round_trip(self, tmp_path, capsys):
        argv = ["report", "--only", "tables", "--cache-dir", str(tmp_path)]
        assert cli_main(argv) == 0
        first = capsys.readouterr().out
        assert list(tmp_path.iterdir())  # populated
        assert cli_main(argv) == 0
        assert capsys.readouterr().out == first  # cached replay identical

    def test_export_writes_header_row(self, tmp_path, capsys):
        assert cli_main(
            ["export", "--dir", str(tmp_path), "--no-cache", "fig4"]
        ) == 0
        lines = (tmp_path / "fig4.csv").read_text().splitlines()
        assert lines[0] == "model,cores,8-GPU demand (samples/s),per-core P (samples/s)"
        assert lines[1].startswith("RM1,")

    def test_export_json_format(self, tmp_path, capsys):
        assert cli_main(
            ["export", "--dir", str(tmp_path), "--format", "json",
             "--no-cache", "table1"]
        ) == 0
        payload = json.loads((tmp_path / "table1.json").read_text())
        assert payload["title"] == "Table I"
        assert payload["columns"][0] == "model"
        assert len(payload["rows"]) == 5

    def test_export_warns_and_skips_rowless_results(self, tmp_path, capsys):
        from repro.experiments.fig3_colocated import Fig3Result

        def run_rowless(model: str = "RM5") -> Fig3Result:
            class Rowless(ExperimentResult):
                pass

            return Rowless()

        register_experiment(
            "rowless-test", title="Rowless test", kind="ablation", order=998
        )(run_rowless)
        try:
            assert cli_main(
                ["export", "--dir", str(tmp_path), "--no-cache",
                 "rowless-test", "table1"]
            ) == 0
            captured = capsys.readouterr()
            assert "skipping 'rowless-test'" in captured.err
            assert not (tmp_path / "rowless-test.csv").exists()
            assert (tmp_path / "table1.csv").exists()  # others still export
            # the cache-enabled path must warn-skip too, not crash trying
            # to encode the protocol-less result into the store: caching
            # is run_experiments' best effort, as for `repro report`
            cache = tmp_path / "cache"
            with pytest.warns(RuntimeWarning,
                              match="could not cache rowless-test"):
                assert cli_main(
                    ["export", "--dir", str(tmp_path / "out2"),
                     "--cache-dir", str(cache), "rowless-test", "table1"]
                ) == 0
            captured = capsys.readouterr()
            assert "skipping 'rowless-test'" in captured.err
            assert (tmp_path / "out2" / "table1.csv").exists()
        finally:
            EXPERIMENT_REGISTRY.unregister("rowless-test")

    def test_export_unknown_id_exits(self, tmp_path):
        with pytest.raises(SystemExit, match="unknown experiment"):
            cli_main(["export", "--dir", str(tmp_path), "fig99"])

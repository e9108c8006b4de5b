"""Tests for the command-line interface."""

import json

import pytest

import repro.campaign
import repro.cli
from repro.cli import build_parser, main
from repro.scenarios import TRAFFIC_KINDS


class _Built(Exception):
    """Raised by a patched runner to hand back what the command built."""


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_simulate_defaults(self):
        args = build_parser().parse_args(["simulate"])
        assert args.n == 8 and args.traffic == "poisson"

    def test_bounds_requires_params(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["bounds"])


class TestTrafficKinds:
    """Both scenario commands take every kind :class:`TrafficMix` declares."""

    @pytest.mark.parametrize("kind", TRAFFIC_KINDS)
    @pytest.mark.parametrize("command", ["simulate", "sweep"])
    def test_every_declared_kind_builds(self, command, kind, monkeypatch,
                                        tmp_path):
        def capture(built, *_args, **_kwargs):
            raise _Built(built)

        monkeypatch.setattr(repro.cli, "_run_observed", capture)
        monkeypatch.setattr(repro.campaign, "CampaignRunner", capture)
        argv = [command, "--traffic", kind, "--burst", "3"]
        if command == "sweep":
            argv += ["--axis", "n=4", "--store", str(tmp_path), "--quiet"]
        with pytest.raises(_Built) as built:
            main(argv)
        scenario = getattr(built.value.args[0], "base", built.value.args[0])
        assert scenario.traffic.kind == kind

    @pytest.mark.parametrize("kind", ["saturate", "prefill"])
    def test_simulate_runs_kinds_it_once_rejected(self, kind, capsys):
        rc = main(["simulate", "--n", "4", "--horizon", "300",
                   "--traffic", kind, "--burst", "20", "--json"])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["config"]["traffic"]["kind"] == kind
        assert payload["delivered"] > 0


class TestBoundsCommand:
    def test_values_match_library(self, capsys):
        rc = main(["bounds", "--n", "8", "--l", "2", "--k", "1",
                   "--t-rap", "9", "--backlog", "4", "--json"])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        from repro.analysis import (access_delay_bound,
                                    sat_rotation_bound_homogeneous)
        assert payload["theorem1_sat_time"] == \
            sat_rotation_bound_homogeneous(8, 2, 1, T_rap=9)
        assert payload["theorem3_access_x4"] == \
            access_delay_bound(4, 2, 8, 9, [(2, 1)] * 8)

    def test_plain_output(self, capsys):
        main(["bounds", "--n", "4", "--l", "1", "--k", "1"])
        out = capsys.readouterr().out
        assert "theorem1_sat_time" in out
        assert "proposition3_mean" in out


class TestSimulateCommand:
    def test_basic_simulation(self, capsys):
        rc = main(["simulate", "--n", "6", "--horizon", "2000", "--json"])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["delivered"] > 0
        assert payload["bound_holds"]

    def test_with_faults(self, capsys):
        rc = main(["simulate", "--n", "6", "--horizon", "3000",
                   "--kill", "2:500", "--leave", "4:1500",
                   "--check-invariants", "--json"])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert 2 not in payload["members"]
        assert 4 not in payload["members"]
        assert payload["invariants_clean"]

    def test_be_deadline_rejected(self):
        with pytest.raises(SystemExit):
            main(["simulate", "--service", "be", "--deadline", "100"])

    def test_bad_fault_entry_rejected(self):
        with pytest.raises(SystemExit):
            main(["simulate", "--kill", "2"])

    def test_mobility_flag(self, capsys):
        rc = main(["simulate", "--n", "6", "--horizon", "1500",
                   "--wander", "1.0", "--json"])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert "delivered" in payload

    def test_json_summary_echoes_resolved_config(self, capsys):
        rc = main(["simulate", "--n", "6", "--l", "2", "--k", "1",
                   "--seed", "9", "--horizon", "1500",
                   "--traffic", "poisson", "--rate", "0.03", "--json"])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        config = payload["config"]
        assert config["n"] == 6 and config["l"] == 2 and config["k"] == 1
        assert config["seed"] == 9 and config["horizon"] == 1500.0
        assert config["traffic"]["kind"] == "poisson"
        assert config["traffic"]["rate"] == 0.03

    def test_summary_carries_profiling_figures(self, capsys):
        rc = main(["simulate", "--n", "6", "--horizon", "1000", "--json"])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["elapsed_s"] > 0
        assert payload["events_per_s"] > 0

    def test_timeline_flag_exports_chrome_trace(self, tmp_path, capsys):
        out = tmp_path / "timeline.json"
        rc = main(["simulate", "--n", "6", "--horizon", "1000", "--rap",
                   "--timeline", str(out), "--json"])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["timeline"]["path"] == str(out)
        document = json.loads(out.read_text())
        events = document["traceEvents"]
        non_meta = [e for e in events if e.get("ph") != "M"]
        assert payload["timeline"]["events"] == len(non_meta) > 0
        cats = {e.get("cat") for e in non_meta}
        assert "sat" in cats and "slots" in cats

    def test_metrics_flag_embeds_registry_snapshot(self, capsys):
        rc = main(["simulate", "--n", "6", "--horizon", "1000",
                   "--metrics", "--json"])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        delivered = sum(payload["metrics"]["ring.delivered"].values())
        assert delivered == payload["delivered"] > 0

    def test_no_metrics_flag_no_snapshot(self, capsys):
        rc = main(["simulate", "--n", "4", "--horizon", "300", "--json"])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert "metrics" not in payload


class TestSweepCommand:
    def _run(self, tmp_path, capsys, extra=()):
        rc = main(["sweep", "--axis", "n=4,6", "--axis", "l=1,2",
                   "--horizon", "400", "--workers", "0",
                   "--store", str(tmp_path / "store"), *extra])
        captured = capsys.readouterr()
        return rc, captured.out, captured.err

    def test_grid_sweep_runs_and_tabulates(self, tmp_path, capsys):
        rc, out, err = self._run(tmp_path, capsys)
        assert rc == 0
        lines = out.splitlines()
        assert lines[0].startswith("=== sweep")
        assert "4 points" in lines[0]
        assert lines[1].split()[:2] == ["n", "l"]
        assert len(lines) == 2 + 4          # title + header + 4 rows
        assert "0 cached, 4 ran" in err

    def test_rerun_hits_cache_and_table_is_identical(self, tmp_path, capsys):
        _, cold, _ = self._run(tmp_path, capsys)
        rc, warm, err = self._run(tmp_path, capsys)
        assert rc == 0
        assert warm == cold                 # byte-identical aggregation
        assert "4 cached, 0 ran" in err
        assert err.count("cached ") == 4    # per-point cache hits logged

    def test_json_records(self, tmp_path, capsys):
        rc, out, _ = self._run(tmp_path, capsys, extra=["--json"])
        assert rc == 0
        records = json.loads(out)
        assert len(records) == 4
        assert all("summary" in r and "scenario" in r for r in records)

    def test_custom_columns(self, tmp_path, capsys):
        rc, out, _ = self._run(tmp_path, capsys,
                               extra=["--columns", "n,delivered,config.seed"])
        assert rc == 0
        header = out.splitlines()[1].split()
        assert header == ["n", "delivered", "config.seed"]

    def test_sweep_config_file(self, tmp_path, capsys):
        spec = {"base": {"horizon": 400.0},
                "mode": "zip",
                "axes": {"n": [4, 6], "l": [1, 2]},
                "name": "filecfg"}
        path = tmp_path / "sweep.json"
        path.write_text(json.dumps(spec))
        rc = main(["sweep", "--config", str(path), "--workers", "0",
                   "--store", str(tmp_path / "store")])
        out = capsys.readouterr().out
        assert rc == 0
        assert "sweep filecfg: 2 points" in out

    def test_axes_required_without_config(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["sweep", "--store", str(tmp_path / "s")])

    def test_bad_axis_entry_rejected(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["sweep", "--axis", "n", "--store", str(tmp_path / "s")])

    def test_unknown_axis_fails_before_any_point(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["sweep", "--axis", "nn=4,8", "--workers", "0",
                  "--store", str(tmp_path / "store")])
        message = str(exc.value.code)
        assert message.startswith("bad sweep: ") and "'nn'" in message
        assert "Traceback" not in capsys.readouterr().err

    def test_failed_point_sets_exit_code(self, tmp_path, capsys):
        rc = main(["sweep", "--axis", "n=1,4", "--horizon", "200",
                   "--workers", "0", "--retries", "0",
                   "--store", str(tmp_path / "store")])
        assert rc == 1
        err = capsys.readouterr().err
        assert "FAILED" in err


class TestCompareCommand:
    def test_compare_shapes(self, capsys):
        rc = main(["compare", "--n", "6", "--quota", "2",
                   "--horizon", "3000", "--json"])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["idle_round_trip_wrt"] < payload["idle_round_trip_tpt"]
        assert (payload["capacity_wrt_pkt_per_slot"]
                > payload["capacity_tpt_pkt_per_slot"])
        assert (payload["failure_repair_wrt_slots"]
                < payload["failure_repair_tpt_slots"])
        # the contention comparator trails both deterministic MACs and
        # reports its collision fraction
        assert (payload["capacity_csma_pkt_per_slot"]
                < payload["capacity_tpt_pkt_per_slot"])
        assert 0 < payload["csma_collision_fraction"] < 1


class TestAllocateCommand:
    def test_feasible_allocation(self, capsys):
        rc = main(["allocate", "--demands", "0.02:500:2,0.05:400:3,0.01:-:0",
                   "--scheme", "local", "--json"])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["feasible"]
        assert len(payload["l"]) == 3

    def test_infeasible_returns_nonzero(self, capsys):
        rc = main(["allocate", "--demands", "0.9:10:50,0.9:10:50"])
        assert rc == 1

    def test_bad_demand_entry(self):
        with pytest.raises(SystemExit):
            main(["allocate", "--demands", "0.5:100"])

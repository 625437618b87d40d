import json
from importlib import resources

import pytest

from privroute import cli
from privroute.cli import main

TINY_NET = """<NUMBER OF NODES> 3
<NUMBER OF LINKS> 3
<END OF METADATA>
1 2 2000 1 1 0.15 4 0 0 1 ;
2 3 2000 1 1 0.15 4 0 0 1 ;
1 3 2000 1 3 0.15 4 0 0 1 ;
"""

TINY_TRIPS = """<NUMBER OF ZONES> 3
<END OF METADATA>
Origin 1
 3 : 1200.0;
Origin 2
 3 : 600.0;
"""


@pytest.fixture
def tiny_files(tmp_path):
    net = tmp_path / "net.tntp"
    trips = tmp_path / "trips.tntp"
    net.write_text(TINY_NET)
    trips.write_text(TINY_TRIPS)
    return net, trips


def _sioux_path(name):
    return resources.files("privroute.data") / name


def test_simulate_writes_metrics_and_manifest(tiny_files, tmp_path):
    net, trips = tiny_files
    out = tmp_path / "out"
    code = main([
        "simulate", "--net", str(net), "--trips", str(trips),
        "--epsilon", "0.5", "--horizon", "600", "--seed", "3",
        "--out", str(out),
    ])
    assert code == 0
    metrics = json.loads((out / "metrics.json").read_text())
    assert metrics["n_vehicles"] > 0
    assert (out / "metrics.csv").exists()
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["command"] == "simulate"
    assert manifest["config"]["seed"] == 3
    assert "version" in manifest and "build" in manifest


def test_simulate_missing_file_exit_code(tmp_path, capsys):
    code = main([
        "simulate", "--net", str(tmp_path / "nope.tntp"),
        "--trips", str(tmp_path / "nope2.tntp"), "--out", str(tmp_path / "o"),
    ])
    assert code == 3
    assert "nope" in capsys.readouterr().err


def test_simulate_bad_config_exit_code(tiny_files, tmp_path):
    net, trips = tiny_files
    code = main([
        "simulate", "--net", str(net), "--trips", str(trips),
        "--epsilon", "-1", "--out", str(tmp_path / "o"),
    ])
    assert code == 2


@pytest.mark.parametrize("flag, value", [
    ("--horizon", "nan"),
    ("--demand", "nan"),
    ("--demand", "inf"),
    ("--dt", "inf"),
    ("--seed", "-1"),
])
def test_simulate_non_finite_or_negative_config_fails_before_writing(
        tiny_files, tmp_path, flag, value):
    net, trips = tiny_files
    out = tmp_path / "o"
    code = main([
        "simulate", "--net", str(net), "--trips", str(trips), flag, value, "--out", str(out),
    ])
    assert code == 2
    assert not (out / "manifest.json").exists()


@pytest.mark.parametrize("trips, message", [
    ("Origin 1\n 4 : 100.0;\n", "node 4"),  # node 4 is not in the network
    ("Origin 3\n 1 : 100.0;\n", "no path from 3 to 1"),
    (TINY_TRIPS + "Origin 1\n 3 : 100.0;\n", "line 8: repeated demand entry"),
], ids=["unknown-node", "unreachable", "repeated-pair"])
def test_simulate_bad_demand_fails_before_writing(tiny_files, tmp_path, capsys,
                                                   trips, message):
    net, _ = tiny_files
    bad_trips = tmp_path / "bad_trips.tntp"
    bad_trips.write_text(trips)
    out = tmp_path / "o"
    code = main([
        "simulate", "--net", str(net), "--trips", str(bad_trips), "--out", str(out),
    ])
    assert code == 3
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_simulate_deterministic_outputs(tiny_files, tmp_path):
    net, trips = tiny_files
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        assert main([
            "simulate", "--net", str(net), "--trips", str(trips),
            "--epsilon", "0.2", "--horizon", "600", "--seed", "7",
            "--out", str(out), "--trace",
        ]) == 0
        outs.append(out)
    assert (outs[0] / "metrics.json").read_bytes() == (outs[1] / "metrics.json").read_bytes()
    assert (outs[0] / "vehicles_private.csv").read_bytes() == (
        outs[1] / "vehicles_private.csv"
    ).read_bytes()


def test_simulate_huge_epsilon_no_noise(tiny_files, tmp_path):
    net, trips = tiny_files
    out = tmp_path / "out"
    assert main([
        "simulate", "--net", str(net), "--trips", str(trips),
        "--epsilon", "1e9", "--horizon", "600", "--seed", "1",
        "--out", str(out),
    ]) == 0
    metrics = json.loads((out / "metrics.json").read_text())
    assert abs(metrics["increase_pct"]) < 0.01
    assert metrics["routes_unchanged_pct"] >= 99.0


def test_critical_counts_sioux_falls(tmp_path, capsys):
    out = tmp_path / "cc"
    code = main([
        "critical-counts", "--net", str(_sioux_path("siouxfalls_net.tntp")),
        "--delta", "0.1", "--epsilon", "0.2", "--p-fail", "0.1",
        "--out", str(out),
    ])
    assert code == 0
    text = capsys.readouterr().out
    assert "threshold: 126.64" in text
    rows = (out / "critical_counts.csv").read_text().strip().splitlines()
    assert len(rows) == 77  # header + 76 edges
    frac = float(text.split("(")[-1].rstrip("%)\n"))
    assert frac > 80.0


@pytest.mark.parametrize("flag, value", [("--epsilon", "0"), ("--p-fail", "2")])
def test_critical_counts_bad_config_fails_before_writing(tmp_path, flag, value):
    out = tmp_path / "cc"
    code = main([
        "critical-counts", "--net", str(_sioux_path("siouxfalls_net.tntp")),
        flag, value, "--out", str(out),
    ])
    assert code == 2
    assert not out.exists()


def test_critical_counts_empty_network(tmp_path, capsys):
    net = tmp_path / "empty.tntp"
    net.write_text("<NUMBER OF NODES> 2\n<NUMBER OF LINKS> 0\n<END OF METADATA>\n")
    code = main(["critical-counts", "--net", str(net), "--out", str(tmp_path / "o")])
    assert code == 0
    assert "NA" in capsys.readouterr().out


def test_verify_accuracy_cli(tmp_path, capsys):
    out = tmp_path / "vt"
    code = main([
        "verify-accuracy", "--capacity", "130", "--trials", "2000",
        "--counts", "1,127,500", "--out", str(out),
    ])
    assert code == 0
    text = capsys.readouterr().out
    assert "minimum integer count 127" in text
    data = json.loads((out / "verify.json").read_text())
    assert all(v["success_rate"] >= 0.9 for v in data["results"].values())


def test_fit_noise_writes_report(tmp_path):
    out = tmp_path / "fit"
    code = main([
        "fit-noise", "--epsilon", "0.2", "--degree", "7", "--seed-bits", "12",
        "--out", str(out),
    ])
    assert code == 0
    report = json.loads((out / "fit_report.json").read_text())
    assert report["d"] == 7
    assert report["ks_distance"] < 0.2


def test_protocol_demo(tmp_path, capsys):
    out = tmp_path / "demo"
    code = main([
        "protocol-demo", "--parties", "4", "--edges", "2", "--degree", "3",
        "--seed-bits", "8", "--seed", "5", "--out", str(out),
    ])
    assert code == 0
    lines = (out / "transcript.jsonl").read_text().strip().splitlines()
    msg = json.loads(lines[0])
    assert set(msg) == {"edge", "phase", "from", "to", "value"}
    round_data = json.loads((out / "round.json").read_text())
    assert round_data["true_counts"] == [2, 2]


def test_protocol_demo_manifest_has_no_handler(tmp_path, monkeypatch):
    written = {}
    real_write_json = cli._write_json

    def capture(path, obj):
        written[path.name] = obj
        real_write_json(path, obj)

    monkeypatch.setattr(cli, "_write_json", capture)
    out = tmp_path / "demo"
    code = main([
        "protocol-demo", "--parties", "3", "--edges", "1", "--degree", "2",
        "--seed-bits", "4", "--seed", "1", "--out", str(out),
    ])
    assert code == 0
    manifest = written["manifest.json"]
    assert "func" not in manifest["config"]
    assert manifest["config"]["parties"] == 3
    assert json.loads(json.dumps(manifest)) == json.loads((out / "manifest.json").read_text())


def test_simulate_manifest_bytes_repeat(tiny_files, tmp_path):
    net, trips = tiny_files
    out = tmp_path / "out"
    manifests = []
    for _ in range(2):
        assert main([
            "simulate", "--net", str(net), "--trips", str(trips),
            "--horizon", "60", "--seed", "2", "--out", str(out),
        ]) == 0
        manifests.append((out / "manifest.json").read_bytes())
    assert manifests[0] == manifests[1]
    assert "timestamp" not in json.loads(manifests[0])


def test_simulate_mpc_infinite_epsilon_fails_before_writing(tiny_files, tmp_path, capsys):
    net, trips = tiny_files
    out = tmp_path / "o"
    code = main([
        "simulate", "--net", str(net), "--trips", str(trips),
        "--noise", "mpc", "--epsilon", "inf", "--out", str(out),
    ])
    assert code == 2
    assert "finite epsilon" in capsys.readouterr().err
    assert not out.exists()


def test_protocol_demo_zero_edges_fails_before_fit(tmp_path, capsys, monkeypatch):
    def no_fit(*args, **kwargs):
        raise AssertionError("the noise polynomial was fitted")

    monkeypatch.setattr(cli, "fit_inverse_cdf_poly", no_fit)
    out = tmp_path / "demo"
    code = main(["protocol-demo", "--edges", "0", "--out", str(out)])
    assert code == 2
    assert "--edges" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("parties", ["0", "2"])
def test_protocol_demo_too_few_parties_fails_before_fit(tmp_path, capsys, monkeypatch, parties):
    def no_fit(*args, **kwargs):
        raise AssertionError("the noise polynomial was fitted")

    monkeypatch.setattr(cli, "fit_inverse_cdf_poly", no_fit)
    out = tmp_path / "demo"
    assert main(["protocol-demo", "--parties", parties, "--out", str(out)]) == 2
    assert "--parties" in capsys.readouterr().err
    assert not out.exists()


def test_fit_noise_zero_parties_is_a_config_error(tmp_path, capsys):
    out = tmp_path / "fit"
    assert main(["fit-noise", "--parties", "0", "--out", str(out)]) == 2
    assert "at least 1 party" in capsys.readouterr().err
    assert not out.exists()


def test_verify_accuracy_zero_trials_is_a_config_error(capsys):
    assert main(["verify-accuracy", "--trials", "0"]) == 2
    assert "trials must be at least 1" in capsys.readouterr().err


@pytest.mark.parametrize("old, new, message", [
    ("<NUMBER OF NODES> 3", "<NUMBER OF NODES> two", "metadata count"),
    ("2 3 2000 1 1 0.15", "2 3 2000 1 0 0.15", "line 5"),  # zero free-flow time
    ("2 3 2000 1 1 0.15", "2 2 2000 1 1 0.15", "self-loop"),
], ids=["metadata-count", "zero-free-flow", "self-loop"])
@pytest.mark.parametrize("command", ["simulate", "critical-counts"])
def test_malformed_net_exits_3_before_writing(tiny_files, tmp_path, capsys,
                                              command, old, new, message):
    net, trips = tiny_files
    assert old in TINY_NET
    net.write_text(TINY_NET.replace(old, new))
    out = tmp_path / "o"
    argv = [command, "--net", str(net), "--out", str(out)]
    if command == "simulate":
        argv += ["--trips", str(trips)]
    assert main(argv) == 3
    assert message in capsys.readouterr().err
    assert not (out / "manifest.json").exists()


@pytest.mark.parametrize("net_kind", ["directory", "not-text"])
def test_unreadable_net_exits_3_before_writing(tiny_files, tmp_path, net_kind):
    net, trips = tiny_files
    if net_kind == "directory":
        net = tmp_path
    else:
        net.write_bytes(b"\xff\xfe" + TINY_NET.encode())
    out = tmp_path / "o"
    code = main(["simulate", "--net", str(net), "--trips", str(trips), "--out", str(out)])
    assert code == 3
    assert not (out / "manifest.json").exists()


@pytest.mark.parametrize("target", ["file", "under-file"])
@pytest.mark.parametrize("argv", [
    ["simulate", "--horizon", "60"],
    ["critical-counts"],
    ["verify-accuracy", "--trials", "10", "--counts", "127"],
    ["fit-noise", "--degree", "3", "--seed-bits", "4"],
    ["protocol-demo", "--parties", "3", "--edges", "1", "--degree", "2", "--seed-bits", "4"],
], ids=lambda argv: argv[0])
def test_out_that_is_a_file_is_a_config_error(tiny_files, tmp_path, capsys, argv, target):
    net, trips = tiny_files
    if argv[0] in ("simulate", "critical-counts"):
        argv = [*argv, "--net", str(net)]
    if argv[0] == "simulate":
        argv += ["--trips", str(trips)]
    out = tmp_path / "taken"
    out.write_text("not a directory\n")
    if target == "under-file":
        out = out / "sub"
    assert main([*argv, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: cannot write to --out")
    assert len(err.splitlines()) == 1 and "Traceback" not in err

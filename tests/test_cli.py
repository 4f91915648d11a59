import json

import pytest

from gvexact import cli
from gvexact.cli import (
    RunConfig,
    compute_reports,
    main,
    parse_degrees,
    parse_gamma,
)


def run_cli(capsys, *args):
    code = main(list(args))
    out = capsys.readouterr().out
    return code, out


def test_parse_gamma():
    assert parse_gamma("P2") == (1, 1, 1)
    assert parse_gamma(" -1,-1") == (-1, -1)
    assert parse_gamma("0,-2") == (0, -2)


def test_parse_degrees():
    assert parse_degrees("1,0,0;2,1,0") == [(1, 0, 0), (2, 1, 0)]


def test_surfaces(capsys):
    code, out = run_cli(capsys, "surfaces")
    assert code == 0
    assert "P2" in out and "B3" in out


def test_compute_json_stream(capsys):
    code, out = run_cli(capsys, "compute", "--surface", "P2", "--max-degree", "2")
    assert code == 0
    lines = [json.loads(l) for l in out.strip().splitlines()]
    summary = lines[-1]
    assert summary["ok"] is True and summary["summary"] is True
    reports = lines[:-1]
    assert summary["reports"] == len(reports) == 9
    first = reports[0]
    assert first["degree"] == [1, 0, 0]
    assert first["t_times_G"] == ["-1"]
    assert first["gv"] == [{"g": 0, "n": "1"}]
    # round trip is byte-identical
    for raw, obj in zip(out.strip().splitlines(), lines):
        assert json.dumps(obj, separators=(",", ":"), sort_keys=True) == raw


def test_compute_nongeometric(capsys):
    code, out = run_cli(capsys, "compute", "--gamma", " -1,-1", "--max-degree", "3")
    assert code == 0
    summary = json.loads(out.strip().splitlines()[-1])
    assert summary["all_integral"] is True


def test_compute_csv(capsys):
    code, out = run_cli(capsys, "compute", "--surface", "P2", "--max-degree", "1",
                        "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "degree,g,n"
    assert len(lines) == 4  # one genus-0 row per unit degree vector


def test_explicit_degrees(capsys):
    code, out = run_cli(capsys, "compute", "--surface", "P2",
                        "--degrees", "1,0,0;1,1,1")
    assert code == 0
    lines = [json.loads(l) for l in out.strip().splitlines()]
    degrees = [tuple(l["degree"]) for l in lines[:-1]]
    assert degrees == [(1, 0, 0), (1, 1, 1)]


def test_paths_verified(capsys):
    code, out = run_cli(capsys, "compute", "--gamma", "1,1", "--max-degree", "2",
                        "--paths", "def,matrix,graphs")
    assert code == 0
    for line in out.strip().splitlines():
        obj = json.loads(line)
        if not obj.get("summary"):
            assert obj["paths_agree"] is True


def test_disagreeing_path_fails_the_run(monkeypatch, capsys):
    real = cli.z_coefficient_matrix

    def off_by_one(gamma, d):
        value = real(gamma, d)
        return value + 1 if d == (1, 1) else value

    monkeypatch.setattr(cli, "z_coefficient_matrix", off_by_one)
    code, out = run_cli(capsys, "compute", "--gamma", "1,1", "--max-degree", "2",
                        "--paths", "def,matrix")
    assert code == 1
    lines = [json.loads(l) for l in out.strip().splitlines()]
    agree = {tuple(l["degree"]): l["paths_agree"] for l in lines[:-1]}
    assert agree == {(1, 0): True, (0, 1): True, (2, 0): True, (1, 1): False, (0, 2): True}
    assert all(l["integral"] for l in lines[:-1])
    assert out.strip().splitlines()[-1] == (
        '{"all_integral":true,"all_paths_agree":false,"ok":false,"reports":5,"summary":true}'
    )


def test_config_file(tmp_path, capsys):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"gamma": [1, 1], "degrees": [[1, 0], [1, 1]]}))
    code, out = run_cli(capsys, "compute", "--config", str(cfg))
    assert code == 0
    lines = [json.loads(l) for l in out.strip().splitlines()]
    assert [tuple(l["degree"]) for l in lines[:-1]] == [(1, 0), (1, 1)]


def test_verify_subcommand(capsys):
    code, out = run_cli(
        capsys, "verify", "--suite", "rset-sanity", "--suite", "vev-oracle"
    )
    assert code == 0
    assert "rset-sanity: PASS" in out
    assert "vev-oracle: PASS" in out


def test_matrix_path_is_accepted_to_its_cap():
    # |d| = 12 is the matrix path's cap; 13 is a usage error (below)
    assert RunConfig((1, 1), 12, paths=("def", "matrix")).top_degree() == 12


def test_missing_gamma_is_usage_error(capsys):
    code = main(["compute"])
    assert code == 2


@pytest.mark.parametrize("args, config", [
    (["--surface", "P2", "--paths", "def,matrx"], None),
    (["--gamma=1,1", "--max-degree", "6", "--paths", "graphs"], None),
    (["--gamma=1,1", "--max-degree", "13", "--paths", "def,matrix"], None),
    (["--gamma=1,1", "--degrees", "3,3", "--paths", "graphs"], None),
    (["--surface", "P2", "--max-degree", "0"], None),
    (["--surface", "P2", "--degrees", ";"], None),
    (["--surface", "P2", "--degrees", "1,0"], None),
    (["--gamma=1"], None),
    (["--gamma=1,x"], None),
    (["--gamma=1,1.5"], None),
    ([], {"gamma": [1]}),
    ([], {"gamma": [1, 1.5]}),
    ([], {"gamma": [1, 1], "degrees": []}),
    ([], {"gamma": [1, 1], "degrees": [[1, 0, 0]]}),
    ([], {"gamma": [1, 1], "paths": "graphs", "max_total_degree": 6}),
    ([], {"gamma": [1, 1], "max_total_degree": 2.5}),
    ([], {"gamma": [1, 1], "paths": ["def"]}),
    ([], [1, 1]),
    ([], "P2"),
    ([], {"gamma": [1, 1], "max_degree": 2}),
    (["--gamma=1,,1"], None),
    (["--gamma=1,1,"], None),
    (["--gamma=,1,1"], None),
    (["--surface", "P2", "--degrees", "1,0,0", "--max-degree", "0"], None),
    ([], {"gamma": [1, 1], "degrees": [[1, 0]], "max_total_degree": 2.5}),
    (["--surface", "P2", "--gamma", "1,1", "--max-degree", "1"], None),
    (["--surface", "P2", "--degrees", "1,0,0;3,3,0", "--max-degree", "2"], None),
    ([], {"gamma": [1, 1, 1], "degrees": [[1, 0, 0], [3, 3, 0]], "max_total_degree": 2}),
    (["--degrees", "1,0,0;3,3,0"], {"gamma": [1, 1, 1], "max_total_degree": 2}),
    (["--max-degree", "2"], {"gamma": [1, 1, 1], "degrees": [[1, 0, 0], [3, 3, 0]]}),
])
def test_bad_compute_input_is_usage_error(tmp_path, capsys, args, config):
    if config is not None:
        path = tmp_path / "run.json"
        path.write_text(json.dumps(config))
        args = args + ["--config", str(path)]
    code = main(["compute", *args])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")


@pytest.mark.parametrize("degrees", ["1,0", [1, 0]], ids=str)
def test_config_degrees_not_integer_lists_are_named(tmp_path, capsys, degrees):
    path = tmp_path / "run.json"
    path.write_text(json.dumps({"gamma": [1, 1], "degrees": degrees}))
    assert main(["compute", "--config", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: config degrees must be a list of integer lists, not {!r}\n".format(degrees))


def test_compute_reports_api():
    reports, ok = compute_reports(RunConfig(gamma=(1, 1), max_total_degree=2))
    assert ok and len(reports) == 5

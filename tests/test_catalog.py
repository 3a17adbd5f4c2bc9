"""Catalog assembly, identifier mapping, emission formats and verification."""

import csv
import importlib.util
import io
import json
import multiprocessing
import os
import subprocess
import sys
from importlib import resources
from pathlib import Path

import pytest

import sphfano
from sphfano.catalog import (
    MAX_JOBS,
    MalformedExpectedFile,
    bundled_expected,
    build_catalog,
    catalog_from_json,
    catalog_to_json,
    counts_table,
    emit,
    identifier_map,
    identifier_sort_key,
    load_expected_csv,
    verify,
)
from sphfano.cli import main
from sphfano.search import InvalidConfig


def test_identifier_map_loads_and_is_injective():
    m = identifier_map()
    assert len(m) == len(set(m.values())) == 319


def _tool(name):
    path = Path(__file__).parents[1] / "tools" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(name, path)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    return tool


def test_identifier_map_is_fresh():
    # the shipped map is exactly what the transcription tool generates
    tool = _tool("build_identifier_map")
    shipped = resources.files("sphfano").joinpath("data/identifier_map.json").read_text()
    assert tool.identifier_map_text() == shipped


def test_identifier_sort_key():
    ids = ["3-2-10", "3-2-2", "3-1-13", "computed-4-2-1"]
    assert sorted(ids, key=identifier_sort_key) == [
        "3-1-13",
        "3-2-2",
        "3-2-10",
        "computed-4-2-1",
    ]


def test_small_catalog_dim2():
    cat = build_catalog(dims=[2], ranks=[1, 2])
    assert cat.total() == 10
    assert [r.identifier for r in cat.records] == [
        "2-1-1", "2-1-2", "2-1-3", "2-1-4", "2-1-5",
        "2-2-1", "2-2-2", "2-2-3", "2-2-4", "2-2-5",
    ]
    text = emit(cat, "csv")
    rows = list(csv.DictReader(io.StringIO(text)))
    assert len(rows) == 10
    assert rows[0]["identifier"] == "2-1-1"
    assert rows[0]["pic"] == "2" and rows[0]["degree"] == "8" and rows[0]["ke"] == "True"


def test_rank0_rows():
    cat = build_catalog(dims=[3], ranks=[0])
    assert cat.total() == 6
    assert all(r.ke and r.fano_index is None for r in cat.records)
    degrees = sorted(r.degree for r in cat.records)
    assert degrees == [48, 48, 54, 54, 64, 64]


def test_empty_scope_builds_nothing(monkeypatch):
    # only None means the full scope, as for families(); an empty list of
    # dimensions or ranks selects no record and searches no family
    monkeypatch.setattr("sphfano.catalog._job", lambda job: pytest.fail("a family was searched"))
    for dims, ranks in (([], [0]), ([1], []), ([], None), (None, [])):
        cat = build_catalog(dims=dims, ranks=ranks)
        assert cat.records == () and cat.total() == 0


def test_json_roundtrip():
    cat = build_catalog(dims=[2], ranks=[0, 1, 2])
    data = json.loads(emit(cat, "json"))
    again = catalog_from_json(data)
    assert again.records == cat.records
    assert again.counts == cat.counts


def test_verify_fault_injection():
    cat = build_catalog(dims=[3], ranks=[1])
    expected = load_expected_csv(bundled_expected("expected_dim3.csv"))
    expected = {k: v for k, v in expected.items() if k.startswith("3-1-")}
    assert verify(cat, expected) == []
    mutated = dict(expected)
    mutated["3-1-1"] = (1, 55, True)
    problems = verify(cat, mutated)
    assert len(problems) == 1 and "3-1-1" in problems[0]


def test_malformed_expected_file():
    with pytest.raises(MalformedExpectedFile):
        load_expected_csv("identifier,notpic\nx,1\n")
    with pytest.raises(MalformedExpectedFile):
        load_expected_csv("identifier,pic,degree,ke\n")


def test_counts_table_shape(full_catalog):
    grid, total = counts_table(full_catalog)
    assert total == 337
    assert [grid[(0, d)] for d in (1, 2, 3, 4)] == [1, 2, 6, 9]
    assert [grid[(1, d)] for d in (1, 2, 3, 4)] == [1, 5, 13, 57]
    assert [grid[(2, d)] for d in (1, 2, 3, 4)] == [0, 5, 44, 194]


def test_full_catalog_identifiers_are_published(full_build):
    catalog, warnings, _ = full_build
    assert warnings == []
    assert not any(r.identifier.startswith("computed-") for r in catalog.records)


def test_emission_is_deterministic(full_catalog):
    # two emissions of the same build are byte-identical; a rebuild of a
    # subset also matches the corresponding slice
    a = emit(full_catalog, "csv")
    b = emit(full_catalog, "csv")
    assert a == b
    sub = build_catalog(dims=[2], ranks=[1, 2])
    sub_rows = emit(sub, "csv").splitlines()[1:]
    assert all(line in a for line in sub_rows)


def test_parallel_build_matches_serial():
    serial = build_catalog(dims=[3], ranks=[1, 2])
    parallel = build_catalog(dims=[3], ranks=[1, 2], jobs=4)
    assert emit(serial, "csv") == emit(parallel, "csv")


# -- command line ----------------------------------------------------------------


def run_cli(*args, env=None, flags=()):
    e = dict(os.environ)
    if env:
        e.update(env)
    return subprocess.run(
        [sys.executable, *flags, "-m", "sphfano.cli", *args],
        capture_output=True,
        text=True,
        env=e,
    )


def test_cli_families():
    r = run_cli("families", "--dim", "3", "--rank", "1")
    assert r.returncode == 0
    assert "SL2sq.horo1" in r.stdout


def test_cli_enumerate():
    r = run_cli("enumerate", "--family", "SL2sq.diagSL2")
    assert r.returncode == 0
    doc = json.loads(r.stdout)
    assert doc["polytopes"] == [{"vertices": [["-1"], ["1/2"]]}]


def test_cli_check():
    r = run_cli(
        "check",
        "--family",
        "SL2sq.diagB",
        "--vertices",
        "(0,-1);(1,0);(0,1);(-1,1)",
    )
    assert r.returncode == 0
    assert "locally factorial reflexive" in r.stdout
    assert "picard rank: 2" in r.stdout
    assert "degree: 432" in r.stdout

    r = run_cli("check", "--family", "SL2sq.diagSL2", "--vertices", "(-1);(1)")
    assert r.returncode == 0
    assert "not locally factorial" in r.stdout


@pytest.mark.parametrize("flags", [(), ("-O",)])
def test_cli_check_degenerate_segment(flags):
    # a repeated endpoint is a usage error with a message, also under -O
    r = run_cli("check", "--family", "SL2.T", "--vertices", "(1);(1)", flags=flags)
    assert r.returncode == 2
    assert "two distinct endpoints" in r.stderr


def test_no_assert_statements_in_package():
    # python -O strips assert statements; checks must raise typed exceptions
    import ast
    from pathlib import Path

    import sphfano

    found = []
    for path in sorted(Path(sphfano.__file__).parent.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Assert):
                found.append(f"{path.name}:{node.lineno}")
    assert not found


def test_cli_usage_errors():
    r = run_cli("enumerate", "--family", "bogus")
    assert r.returncode == 2
    r = run_cli("enumerate", "--family", "SL2xGm.T", "--params", "a1=9")
    assert r.returncode == 2
    r = run_cli()
    assert r.returncode == 2


def test_cli_verify_mismatch_exit_code(tmp_path):
    bad = tmp_path / "expected.csv"
    bad.write_text("identifier,pic,degree,ke\n2-1-1,2,9,True\n")
    r = run_cli("verify", "--expected", str(bad))
    assert r.returncode == 1
    assert "2-1-1" in r.stdout


def test_cli_verify_missing_expected_file(tmp_path):
    # a usage error, reported before the catalog is built
    r = run_cli("verify", "--expected", str(tmp_path / "missing.csv"))
    assert r.returncode == 2
    assert r.stderr.startswith("error:") and "Traceback" not in r.stderr


@pytest.mark.parametrize(
    "rows,message",
    [
        (["2-1-1,1,8,True", "2-1-1,2,8,True"], "given twice"),
        (["2-1-1,2,8,True", "2-1-1,1,8,True"], "given twice"),
        (["foo,1,8,True"], "not dim-rank-number"),
        (["2-1-1,2,8,maybe"], "ke 'maybe'"),
    ],
)
def test_cli_verify_malformed_expected_rows(tmp_path, monkeypatch, capsys, rows, message):
    # duplicate rows in either order, a malformed identifier and an unknown ke
    # spelling are usage errors found before the catalog is built
    monkeypatch.setattr("sphfano.cli.build_catalog", lambda *a, **k: pytest.fail("catalog built"))
    path = tmp_path / "expected.csv"
    path.write_text("identifier,pic,degree,ke\n" + "\n".join(rows) + "\n")
    assert main(["verify", "--expected", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and message in err


def test_expected_ke_spellings():
    text = "identifier,pic,degree,ke\n" + "".join(
        f"2-1-{i},1,8,{ke}\n" for i, ke in enumerate(("True", "yes", "False", " no"))
    )
    assert [ke for _, _, ke in load_expected_csv(text).values()] == [True, True, False, False]


def test_cli_catalog_unwritable_out(tmp_path):
    r = run_cli("catalog", "--dim", "2", "--out", str(tmp_path / "missing" / "x.csv"))
    assert r.returncode == 2
    assert r.stderr.startswith("error:") and "Traceback" not in r.stderr


@pytest.mark.parametrize(
    "argv,work",
    [
        (["catalog", "--dim", "2", "--out"], "build_catalog"),
        (["enumerate", "--family", "toric", "--params", "n=2", "--json"], "enumerate_polytopes"),
    ],
)
def test_cli_output_path_opened_before_the_work(tmp_path, monkeypatch, capsys, argv, work):
    # an output path in a missing directory is a usage error reported before
    # any search; the stub fails if the work starts
    monkeypatch.setattr(f"sphfano.cli.{work}", lambda *a, **k: pytest.fail(f"{work} was called"))
    assert main([*argv, str(tmp_path / "missing" / "out")]) == 2
    assert capsys.readouterr().err.startswith("error:")


def test_cli_box_env_too_small():
    # SPHFANO_BOX=3 truncates a published polytope: internal assertion, code 3
    r = run_cli(
        "enumerate",
        "--family",
        "SL3.horo2",
        "--params",
        "a1=1",
        env={"SPHFANO_BOX": "3"},
    )
    assert r.returncode == 3


@pytest.mark.parametrize("box", ["11", "abc"])
def test_cli_box_env_out_of_range(box):
    # a box outside 2..10 is a usage error, reported before any search
    r = run_cli("enumerate", "--family", "toric", "--params", "n=2", env={"SPHFANO_BOX": box})
    assert r.returncode == 2
    assert "SPHFANO_BOX" in r.stderr


def _no_pool(*args, **kwargs):
    raise AssertionError("a worker pool was started")


@pytest.mark.parametrize("jobs", [0, -5, MAX_JOBS + 1, 2.0, "2"])
def test_jobs_out_of_range(jobs, monkeypatch):
    # the check comes before any work; the stub fails if a pool is started
    monkeypatch.setattr(multiprocessing, "Pool", _no_pool)
    with pytest.raises(InvalidConfig):
        build_catalog(dims=[1], jobs=jobs)


def test_cli_jobs_out_of_range(monkeypatch, capsys):
    monkeypatch.setattr(multiprocessing, "Pool", _no_pool)
    assert main(["catalog", "--dim", "1", "--jobs", "-5"]) == 2
    assert f"jobs must be an integer in 1..{MAX_JOBS}" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv", [["--dim", "5"], ["--dim", "0"], ["--rank", "3"], ["--dim", "2", "--rank", "-1"]]
)
def test_cli_catalog_scope_out_of_range(argv, monkeypatch, capsys):
    # dims outside 1..4 and ranks outside 0..2 are usage errors, reported
    # before any search
    monkeypatch.setattr("sphfano.catalog._job", lambda job: pytest.fail("a family was searched"))
    assert main(["catalog", *argv]) == 2
    assert "dims must lie in 1..4 and ranks in 0..2" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [["--dim", "5"], ["--rank", "7", "--json"], ["--dim", "0"]])
def test_cli_families_scope_out_of_range(argv, capsys):
    # the bounds of `catalog`, checked in `registry.families`: a usage error
    # that prints no rows
    assert main(["families", *argv]) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert "dims must lie in 1..4 and ranks in 0..2" in out.err


@pytest.mark.parametrize(
    "argv, message",
    [
        (["--family", "SL2.T", "--vertices", "(-1);(1/0)"], "zero denominator"),
        (
            ["--family", "toric", "--params", "n=2", "--vertices", "(1,0);(0,1);(-1,-1);(1)"],
            "do not all have rank 2",
        ),
        (["--family", "SL2.T", "--vertices", "(-1,0);(1,0)"], "do not all have rank 1"),
    ],
)
def test_cli_check_malformed_vertices(argv, message, capsys):
    # malformed input is a usage error (2), never a traceback or the exit
    # code of a verification mismatch (1)
    assert main(["check", *argv]) == 2
    assert message in capsys.readouterr().err


def test_cli_repeated_param(capsys):
    assert main(["enumerate", "--family", "toric", "--params", "n=2,n=1"]) == 2
    assert "parameter 'n' given twice" in capsys.readouterr().err


def test_serial_build_does_not_import_multiprocessing():
    # only jobs > 1 loads multiprocessing, so a serial build or a check does not
    code = (
        "import sys; from sphfano import catalog; catalog.build_catalog(dims=[1]); "
        "print('multiprocessing' in sys.modules)"
    )
    r = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert (r.returncode, r.stdout.strip()) == (0, "False"), r.stderr


@pytest.mark.parametrize("demo", ["tour_of_the_engine.py", "reproduce_threefold_table.py"])
def test_demo_runs(demo):
    src = str(Path(sphfano.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    path = Path(__file__).parents[1] / "demos" / demo
    r = subprocess.run([sys.executable, str(path)], capture_output=True, text=True, env=env)
    assert r.returncode == 0, r.stderr


def test_cli_catalog_csv(tmp_path):
    out = tmp_path / "cat.csv"
    r = run_cli("catalog", "--dim", "2", "--out", str(out))
    assert r.returncode == 0
    rows = list(csv.DictReader(out.open()))
    assert len(rows) == 12  # 10 positive-rank + 2 rank-0 records
    header = out.read_text().splitlines()[0]
    assert header == "identifier,dim,rank,family,params,pic,degree,fano_index,ke,group,type"


def test_cli_catalog_under_python_O_matches_in_process_build():
    # python -O strips asserts and sets __debug__ = False; the emitted
    # dims 2-3 catalog must not depend on either
    r = run_cli("catalog", "--dim", "2", "--dim", "3", "--format", "csv", flags=("-O",))
    assert r.returncode == 0, r.stderr
    assert r.stdout == emit(build_catalog(dims=(2, 3)), "csv")


DIM4_NAMED_VARIETIES = {
    # identifier: (pic, degree, ke) for records whose underlying variety the
    # source names explicitly; degrees follow the product formula
    # deg(XxY) = binom(dim)(degX)(degY), KE is preserved by products
    "4-1-11": (1, 625, True),   # P4
    "4-1-12": (1, 512, True),   # Q4
    "4-1-13": (3, 432, True),   # P2 x P1 x P1
    "4-1-14": (2, 486, True),   # P2 x P2
    "4-1-15": (2, 432, True),   # P1 x Q3
    "4-1-16": (2, 512, True),   # P1 x P3
    "4-1-17": (4, 384, True),   # (P1)^4
    "4-1-18": (3, 432, True),   # (P1)^2 x P2
    "4-1-44": (2, 512, True),   # P3 x P1
    "4-1-45": (2, 432, True),   # Q3 x P1
    "4-1-53": (2, 512, True),   # P3 x P1
    "4-2-5": (2, 432, True),    # Q3 x P1
    "4-2-8": (2, 512, True),    # P3 x P1
    "4-2-16": (1, 512, True),   # Q4
    "4-2-18": (1, 625, True),   # P4
    "4-2-19": (2, 432, True),   # Q3 x P1
    "4-2-23": (2, 512, True),   # P3 x P1
    "4-2-31": (1, 512, True),   # Q4
    "4-2-48": (4, 384, False),  # (P1)^2 x F1
    "4-2-52": (3, 432, True),   # (P1)^2 x P2
    "4-2-59": (2, 512, True),   # P3 x P1
    "4-2-81": (1, 625, True),   # P4
    "4-2-84": (3, 432, False),  # P2 x F1
    "4-2-90": (2, 486, True),   # P2 x P2
    "4-2-152": (1, 625, True),  # P4
    "4-2-192": (2, 512, True),  # P3 x P1
    "4-2-193": (1, 625, True),  # P4
}


def test_dim4_named_variety_anchors(full_catalog):
    by_id = {r.identifier: r for r in full_catalog.records}
    for ident, (pic, deg, ke) in DIM4_NAMED_VARIETIES.items():
        r = by_id[ident]
        assert (r.pic, r.degree, r.ke) == (pic, deg, ke), (
            ident,
            (r.pic, r.degree, r.ke),
            (pic, deg, ke),
        )


def test_full_catalog_reproduces_recorded_invariants(full_catalog):
    # tools/record_catalog_invariants.py: pic, degree, index, KE verdict,
    # K-value and barycenter of all 337 records, dimension 4 included
    recorded = (Path(__file__).parent / "data" / "catalog_invariants.json").read_text()
    assert len(json.loads(recorded)) == 337
    assert _tool("record_catalog_invariants").catalog_invariants_text(full_catalog) == recorded

import gc
import hashlib
import importlib
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from hopfgalois.cli import MAX_CUBIC_DIGITS, main


def _env_with_src(**extra):
    """The environment with this checkout's src/ first on PYTHONPATH."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    return dict(os.environ, **extra, PYTHONPATH=os.pathsep.join(
        [src] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])))


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_catalog_text(capsys):
    code, out, err = run(capsys, "catalog", "--p", "5")
    assert code == 0
    assert "overall: PASS" in out
    assert "iso-census" in out


def test_catalog_json_schema(capsys):
    code, out, _ = run(capsys, "catalog", "--p", "3", "--json")
    assert code == 0
    report = json.loads(out)
    assert set(report) == {"command", "inputs", "results", "checks"}
    assert report["command"] == "catalog"
    assert report["inputs"] == {"p": 3}
    assert report["results"]["count"] == 5
    for check in report["checks"]:
        assert set(check) == {"name", "passed", "detail"}
        assert check["passed"] is True


def test_enumerate_commands(capsys):
    code, out, _ = run(capsys, "enumerate", "--group", "d3", "--json")
    assert code == 0
    report = json.loads(out)
    assert report["results"]["count"] == 5
    assert report["results"]["census"] == {"C6": 3, "D3": 2}

    code, out, _ = run(capsys, "enumerate", "--group", "klein4", "--json")
    assert code == 0
    assert json.loads(out)["results"]["census"] == {"C2xC2": 1, "C4": 3}


@pytest.mark.parametrize("p,label", [("11", "N0"), ("13", "rho")])
def test_descend_at_large_primes(capsys, p, label):
    code, out, _ = run(capsys, "descend", "--p", p, "--structure", label, "--field", "split")
    assert code == 0
    assert "[FAIL]" not in out and out.endswith("overall: PASS\n")


def test_descend_cubic(capsys):
    code, out, _ = run(capsys, "descend", "--p", "3", "--structure", "N0",
                       "--field", "cubic:2", "--json")
    assert code == 0
    report = json.loads(out)
    assert report["results"]["dim"] == 6
    assert report["results"]["commutative"] is True
    names = [c["name"] for c in report["checks"]]
    assert "action-bijective" in names
    assert "measures-products" in names
    assert "explicit-basis-cyclic" in names


def test_descend_split(capsys):
    code, out, _ = run(capsys, "descend", "--p", "5", "--structure", "lambda",
                       "--field", "split", "--json")
    assert code == 0
    report = json.loads(out)
    assert report["results"]["dim"] == 10
    assert report["results"]["commutative"] is False
    assert any(c["name"] == "explicit-basis-translation" for c in report["checks"])


def test_classify(capsys):
    code, out, _ = run(capsys, "classify", "--field", "cubic:2", "--json")
    assert code == 0
    report = json.loads(out)
    assert report["results"]["hopf_classes"] == [["rho"], ["lambda"],
                                                 ["N0", "N1", "N2"]]
    assert report["results"]["polyform"]["b"] == "-3"
    assert all(c["passed"] for c in report["checks"])


def test_classify_descends_each_structure_once(capsys, monkeypatch):
    analysis = importlib.import_module("hopfgalois.analysis")
    descend, labels = analysis.descend, []

    def counted(A, label=None):
        labels.append(label)
        return descend(A, label=label)

    monkeypatch.setattr(analysis, "descend", counted)
    code, _, _ = run(capsys, "classify", "--field", "cubic:2")
    assert code == 0
    assert labels == ["rho", "lambda", "N0", "N1", "N2"]


def test_deterministic_output(capsys):
    _, out1, _ = run(capsys, "classify", "--field", "cubic:2", "--json")
    _, out2, _ = run(capsys, "classify", "--field", "cubic:2", "--json")
    assert out1 == out2
    _, t1, _ = run(capsys, "catalog", "--p", "7")
    _, t2, _ = run(capsys, "catalog", "--p", "7")
    assert t1 == t2


# SHA-256 of the stdout of the README examples (run without --out), pinned so a
# change of any report byte shows; they do not depend on PYTHONHASHSEED
README_REPORT_DIGESTS = {
    "catalog --p 13": "1ecfbef469c7618fe6d4ef5f2dd60a80d7fd214b7512446345b44b7f89243187",
    "enumerate --group d3 --json":
        "4416e8f15914f54da2acee3870796ab340a5adee647b257084eb00329fdee06d",
    "descend --p 3 --structure lambda --field cubic:2":
        "b467ff0f551a24661f7fdcb0be82d3391dfd1551c7cf30d577cbceb94cd581f7",
    "descend --p 7 --structure N3 --field split --json":
        "b76757764b69cd35bdc01c6ab8f844827face2c2dbaff3dd149c178327f379b0",
    "classify --field cubic:2 --json":
        "5dba7a61df4bb1ea818d013d3d09291a1bc1f876c5197e68828154a5a5f3d981",
}


@pytest.mark.parametrize("command", list(README_REPORT_DIGESTS))
def test_readme_reports_keep_their_bytes(capsys, command):
    code, out, err = run(capsys, *command.split())
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == README_REPORT_DIGESTS[command]


# SHA-256 of the stdout of every catalog and enumerate report, pinned so a
# change of any report byte shows
CATALOG_REPORT_DIGESTS = {
    "catalog --p 3":
        "3ac23ec487c3ce5475d6b3141a28d1a46a3a7490a11a53c29cb455ccaedc6672",
    "catalog --p 3 --json":
        "e7460792d510d369133e3dc4c7d5ace01961b951a94083985ef434adc850085a",
    "catalog --p 5":
        "44c47266e259768b91688e2d21c260330778599d414f2abc02070d410deb1f6a",
    "catalog --p 5 --json":
        "09f8930e8ffb9f73eb45def2a73b27b2139435dd0a44e11ba22f9ef3e750e862",
    "catalog --p 7":
        "7492d9e2100943a7121f8fe4651d3977fa484c4b108200958c39781874ea2304",
    "catalog --p 7 --json":
        "f0e967e7275cefce3cedf62152780bf9c64bf8d3b307904b112fb79a89f5bd0f",
    "catalog --p 11":
        "234f22a134b56b14aea7a12b0a17a845dc527645d8a40a34372fabaa2d380b06",
    "catalog --p 11 --json":
        "84a2f2da179cb2f66fed9b074ac663abb9b3a74c6b99def0962268f2c7c176b0",
    "catalog --p 13":
        "1ecfbef469c7618fe6d4ef5f2dd60a80d7fd214b7512446345b44b7f89243187",
    "catalog --p 13 --json":
        "6e6cbac5a637b7a739179bb516aa2a71ab5b31c0aa359fdd92ca768f2d450680",
    "enumerate --group d3":
        "493de02d06b9b1e4329d1b423f8ab4a0c84237fab0f7c1d2a70446516896d81e",
    "enumerate --group d3 --json":
        "4416e8f15914f54da2acee3870796ab340a5adee647b257084eb00329fdee06d",
    "enumerate --group klein4":
        "dc6fa6aca8e891eb6901c283d635c3e3aee88a584247da425b0c578b7241be88",
    "enumerate --group klein4 --json":
        "78704005f6396a54039417efc036f3a5a305b1f44da7aa0601c86e0d0c619467",
}


@pytest.mark.parametrize("command", list(CATALOG_REPORT_DIGESTS))
def test_catalog_reports_keep_their_bytes(capsys, command):
    code, out, err = run(capsys, *command.split())
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == CATALOG_REPORT_DIGESTS[command]


# SHA-256 of the stdout of every classify report over the cubic models
# v = 2, 3, 5, 6, 7 and 1/2, pinned so a change of any report byte shows
CLASSIFY_REPORT_DIGESTS = {
    "classify --field cubic:2":
        "3bbf083f4d5c14996091d997feeac9607d605704db12fc1cfc34556124430391",
    "classify --field cubic:2 --json":
        "5dba7a61df4bb1ea818d013d3d09291a1bc1f876c5197e68828154a5a5f3d981",
    "classify --field cubic:3":
        "4dc0cb42d5b9888a11695e397cbf24efdf68ee17505aa3a039081b2c319aebf7",
    "classify --field cubic:3 --json":
        "b34240d671ceb932c86eade33663bcb8b5c9244721d8d1e5b7a4df9300dfa4f4",
    "classify --field cubic:5":
        "fab45451c169212bfe869076713ef0389674638cdfb03e56e9113f2a2251046b",
    "classify --field cubic:5 --json":
        "66e0b8593e4a13fb16185c323c403e46c7dd9b6cc37c856ccac36d5eb71c6c35",
    "classify --field cubic:6":
        "70cd52a94498f62cac6d3dcdc97c57ff4cda002dce5c2ae6cbf4d6dfc115ecb0",
    "classify --field cubic:6 --json":
        "2517410e4dae44c13e89ba1b680383b20da5675ced9faec7ccf1d7546ff8a926",
    "classify --field cubic:7":
        "b2f8d5de56ce53066b87cddeb868a565c9c17b68a273c838dcd8e2e99aa56183",
    "classify --field cubic:7 --json":
        "6ff233719d8b9909e41111aeb824bce1ef4d7440f26c9b451c0d0aecd94d65f0",
    "classify --field cubic:1/2":
        "39c0729704fa0450b27537c496d98db5b9418071b74acb2d418c0b7ba0bb0b50",
    "classify --field cubic:1/2 --json":
        "7611f8718adaed8da878409a5cf5e98d3898c76d5ea777a55c5a47b23249d118",
}


@pytest.mark.parametrize("command", list(CLASSIFY_REPORT_DIGESTS))
def test_classify_reports_keep_their_bytes(capsys, command):
    code, out, err = run(capsys, *command.split())
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == CLASSIFY_REPORT_DIGESTS[command]


# SHA-256 of the stdout of every descend report at p = 3 over cubic:2 and at
# p = 5 over the split model, pinned so a change of any report byte shows
DESCEND_REPORT_DIGESTS = {
    "descend --p 3 --structure rho --field cubic:2":
        "132d30f2b555bc3fa42240088c86d62185e205121aa8349de7d066773d4dae53",
    "descend --p 3 --structure rho --field cubic:2 --json":
        "02bb44b2e5ee42133b13695728df4afca166db037a07bdd1f05b52af885fce4a",
    "descend --p 3 --structure lambda --field cubic:2":
        "b467ff0f551a24661f7fdcb0be82d3391dfd1551c7cf30d577cbceb94cd581f7",
    "descend --p 3 --structure lambda --field cubic:2 --json":
        "bc82527292e7b925be44295e2e0a661d5826d6964f08dc65d7d813e6db9e98ba",
    "descend --p 3 --structure N0 --field cubic:2":
        "12c11f8da7fc376e0daa73513b7a595959f06eeb9926373f46dbc10bebf4993f",
    "descend --p 3 --structure N0 --field cubic:2 --json":
        "c140bc22c90bcbf343c40808fe8bc7a9212de690333e8d8676d8a6fed94dc0fb",
    "descend --p 3 --structure N1 --field cubic:2":
        "fcdf9a255af00a928333d0a0a964afdb225b02dc33bcac18446704d79d61319d",
    "descend --p 3 --structure N1 --field cubic:2 --json":
        "a2cf69cb6df5d9475b2cd647704c1632bd9f9fde9a31993989435d5502db7026",
    "descend --p 3 --structure N2 --field cubic:2":
        "ea0e5815b2bd3aa76ab08f14498decd5ba7bd8ddb62cc9c9c08777347684f37c",
    "descend --p 3 --structure N2 --field cubic:2 --json":
        "a4caa16bbcd5208935aadd39922bd23b18c9b19d41c8cb20681894aa956cc3cf",
    "descend --p 5 --structure rho --field split":
        "d5304c112c0b5f5fe13bcffb1b2b3fbb45d81c6047b3cb55d0115a80c70ab301",
    "descend --p 5 --structure rho --field split --json":
        "ecd078eb72295cbadcc92cc9ed54cb00ca0ed2d968e2cf7d49f9bf1a1fff65ef",
    "descend --p 5 --structure lambda --field split":
        "c7931f8390905f1b703eca749b97c64e39da098f08bc1927ad267267fbb54bde",
    "descend --p 5 --structure lambda --field split --json":
        "9178be41f758f7f9dfa326f9677d93f977aaf1b5ac3e7ec1d2527e4984f5a1dd",
    "descend --p 5 --structure N0 --field split":
        "0d3e64854214801fb0fbec8e109c4f644c9fcb8615608fc7442f53dd4bd98e8e",
    "descend --p 5 --structure N0 --field split --json":
        "8dc2c667fca98300565c4f2d443a8c5af433450c20fa06c4d2c07577ae144176",
    "descend --p 5 --structure N1 --field split":
        "e614242c01469298f9d37f8c847ec1d2b8e96fbbf878b3fde26ef7ce1919bffb",
    "descend --p 5 --structure N1 --field split --json":
        "69a03724cdfcbd2dd90c1ea0e59228536f2409722363a28810f33812560f24c9",
    "descend --p 5 --structure N2 --field split":
        "41439e09351a801cb5da365bdc0f01a2255ada5ee264cede54e4430fe64dcc39",
    "descend --p 5 --structure N2 --field split --json":
        "39f44ba7bee05a40060f4bc42780ba4353691fc825ce80a43af273a876cf0d0d",
    "descend --p 5 --structure N3 --field split":
        "282da1369feadfaf8bf7a08628ddb6716623220b8249ac3f22efef676ed022dd",
    "descend --p 5 --structure N3 --field split --json":
        "8f31a883e0fea50822f48f049d83bc6c01c4e1e0b7e63931a75d48123c905dea",
    "descend --p 5 --structure N4 --field split":
        "d666a2f9c5510e6eb2c7325c16a3a53fab94d51ef169038bc83f73754d41d7c8",
    "descend --p 5 --structure N4 --field split --json":
        "03b4f4e1b81c256fb10cde23f3b157ad796f6dde76bbd29d1735a03115bbbe88",
}


@pytest.mark.parametrize("command", list(DESCEND_REPORT_DIGESTS))
def test_descend_reports_keep_their_bytes(capsys, command):
    code, out, err = run(capsys, *command.split())
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == DESCEND_REPORT_DIGESTS[command]


_DIGEST_SCRIPT = """
import contextlib, hashlib, io, sys
from hopfgalois.cli import main
for command in sys.argv[1:]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        main(command.split())
    print(hashlib.sha256(out.getvalue().encode()).hexdigest())
"""


@pytest.mark.parametrize("hashseed", ["1", "2"])
def test_catalog_reports_do_not_depend_on_the_hash_seed(hashseed):
    done = subprocess.run([sys.executable, "-c", _DIGEST_SCRIPT, *CATALOG_REPORT_DIGESTS],
                          capture_output=True, text=True, timeout=300,
                          env=_env_with_src(PYTHONHASHSEED=hashseed))
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == list(CATALOG_REPORT_DIGESTS.values())


def test_enumerate_d3_fails_when_the_catalog_drops_an_entry(capsys, monkeypatch):
    catalog_module = importlib.import_module("hopfgalois.catalog")
    real = catalog_module.catalog
    monkeypatch.setattr(catalog_module, "catalog", lambda p: real(p)[:-1])
    code, out, err = run(capsys, "enumerate", "--group", "d3")
    assert (code, err) == (1, "")
    assert [line for line in out.splitlines() if "[FAIL]" in line] == [
        "  [FAIL] matches-catalog"]


def test_cli_call_leaves_no_cyclic_garbage(capsys):
    for argv in (["catalog", "--p", "3"], ["catalog", "--p", "3", "--json"]):
        run(capsys, *argv)
        gc.collect()
        gc.disable()
        try:
            code = main(argv)
            assert gc.collect() == 0, argv
        finally:
            gc.enable()
        assert code == 0
        capsys.readouterr()


def test_consecutive_argparse_errors_echo_their_own_text(capsys):
    calls = [(("catalog", "--p"), "7" * 5000), (("enumerate", "--group="), "x" * 6000),
             (("catalog", "--p"), "8" * 4500)]
    for (command, flag), text in calls:
        argv = (command, flag + text) if flag.endswith("=") else (command, flag, text)
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert f"{text[:40]!r}... ({len(text)} characters)" in err
        assert max(map(len, err.splitlines())) < 200
        assert all(other[:40] not in err for _, other in calls if other != text)


def test_out_file(tmp_path, capsys):
    target = tmp_path / "report.json"
    code, out, _ = run(capsys, "catalog", "--p", "3", "--json",
                       "--out", str(target))
    assert code == 0
    assert out == ""
    assert json.loads(target.read_text())["command"] == "catalog"


@pytest.mark.parametrize("argv", [
    ("catalog", "--p", "4"),
    ("descend", "--p", "17", "--structure", "rho", "--field", "split"),
    ("descend", "--p", "3", "--structure", "N7", "--field", "cubic:2"),
    ("descend", "--p", "3", "--structure", "N0", "--field", "cubic:8"),
    ("descend", "--p", "3", "--structure", "N0", "--field", "cubic:x"),
    ("descend", "--p", "5", "--structure", "N0", "--field", "cubic:2"),
    ("descend", "--p", "3", "--structure", "N0", "--field", "nonsense"),
    ("classify", "--field", "split"),
    ("classify", "--p", "5", "--field", "cubic:2"),
])
def test_usage_errors(capsys, argv):
    code, _, err = run(capsys, *argv)
    assert code == 2
    assert err.startswith("error:")


def test_huge_cube_is_named_without_printing_it(capsys):
    code, out, err = run(capsys, "descend", "--p", "3", "--structure", "N0",
                         "--field", "cubic:1e30000")
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and "rational cube" in err
    assert "30001-digit numerator" in err
    assert len(err) < 200


@pytest.mark.parametrize("value", ["1e1000000", "1e-1000000", "1e1000000000"])
def test_overlong_cubic_parameter_is_rejected_before_it_is_built(capsys, value):
    start = time.perf_counter()
    code, out, err = run(capsys, "descend", "--p", "3", "--structure", "N0",
                         "--field", f"cubic:{value}")
    assert time.perf_counter() - start < 1.0
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and f"{MAX_CUBIC_DIGITS} digits" in err


@pytest.mark.parametrize("value", ["2" + "0" * 5000, "1" * 4301 + "/7", "2/" + "3" * 4400])
def test_written_out_cubic_parameter_past_the_int_string_limit(capsys, value):
    start = time.perf_counter()
    code, out, err = run(capsys, "descend", "--p", "3", "--structure", "N0",
                         "--field", f"cubic:{value}")
    assert time.perf_counter() - start < 1.0
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and "4300 digits" in err and "exponent notation" in err
    assert len(err) < 200


def test_unparsable_spec_is_echoed_only_in_part(capsys):
    code, _, err = run(capsys, "descend", "--p", "3", "--structure", "N0",
                       "--field", "cubic:" + "x" * 5000)
    assert code == 2
    assert "(5000 characters)" in err and len(err) < 200


@pytest.mark.parametrize("argv", [("catalog", "--p", "9" * 5000),
                                  ("enumerate", "--group", "x" * 5000)])
def test_argparse_errors_echo_user_text_only_in_part(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("usage:")
    assert "(5000 characters)" in err and max(map(len, err.splitlines())) < 200


def test_bad_flags_exit_2(capsys):
    assert run(capsys, "enumerate", "--group", "d5")[0] == 2
    assert run(capsys, "nosuchcommand")[0] == 2
    assert run(capsys)[0] == 2


def test_enumerate_reads_no_environment(capsys, monkeypatch):
    # the package reads no environment setting, so this variable (once the
    # cap of enumerate's regeneration closures) leaves every byte unchanged
    monkeypatch.delenv("HGL_CLOSURE_BOUND", raising=False)
    unset = run(capsys, "enumerate", "--group", "d3")
    assert unset[0] == 0
    for value in ("3", "abc"):
        monkeypatch.setenv("HGL_CLOSURE_BOUND", value)
        assert run(capsys, "enumerate", "--group", "d3") == unset


def test_unwritable_out_is_usage_error(tmp_path, capsys):
    target = tmp_path / "missing" / "r.json"
    code, out, err = run(capsys, "catalog", "--p", "3", "--out", str(target))
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: cannot write report to {target}")
    assert not target.exists()


def test_rationals_rendered_as_strings(capsys):
    _, out, _ = run(capsys, "classify", "--field", "cubic:2", "--json")
    points = json.loads(out)["results"]["polyform"]["points"]
    assert points[0] == ["-2", "0"]
    assert all(isinstance(v, str) for pt in points for v in pt)


@pytest.mark.parametrize("argv,want", [(["catalog", "--p", "3"], 0), (["catalog", "--p", "4"], 2)])
def test_module_entry_point_matches_main(capsys, argv, want):
    code, out, _ = run(capsys, *argv)
    done = subprocess.run([sys.executable, "-m", "hopfgalois", *argv], capture_output=True,
                          env=_env_with_src(), timeout=300)
    assert code == done.returncode == want
    assert done.stdout == out.encode()

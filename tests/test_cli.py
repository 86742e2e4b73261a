"""End-to-end command behavior through cli.main, without subprocesses."""

import json
from pathlib import Path

import pytest

from colorhom import cli, io
from colorhom.checkers import check_color_leibniz
from colorhom.fixtures import fixture, fixture_document, fixture_names


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# check


def test_check_passing_fixture_by_registry_path(capsys):
    code, out, err = run(capsys, "check", "fixtures/leibniz-L2")
    assert code == 0
    assert "result: PASS" in out


def test_check_failing_fixture_exit_one(capsys):
    code, out, _ = run(capsys, "check", "fixtures/leibniz-L2-broken")
    assert code == 1
    assert "color-hom-leibniz" in out and "FAIL" in out


def test_check_reads_real_files(tmp_path, capsys):
    p = tmp_path / "b.json"
    p.write_text(io.dumps_document(fixture_document("leibniz-S1")))
    code, out, _ = run(capsys, "check", str(p))
    assert code == 0
    assert "result: PASS" in out


def test_check_unknown_path_is_input_error(capsys):
    code, _, err = run(capsys, "check", "no/such/thing")
    assert code == 2
    assert "error:" in err


@pytest.mark.parametrize("exc", [MemoryError, RecursionError])
def test_resource_exhaustion_is_input_error(monkeypatch, capsys, exc):
    """Exit 1 means a law fails; running out of memory or stack is not
    that, so it exits 2 with a message, not a traceback."""
    def exhausted(args):
        raise exc()

    monkeypatch.setattr(cli, "cmd_check", exhausted)
    code, out, err = run(capsys, "check", "fixtures/leibniz-L2")
    assert code == 2
    assert out == "" and err.startswith("error:")


def test_check_oversized_integer_is_input_error(tmp_path, capsys):
    # 5001 digits is past CPython's default int-string limit of 4300
    doc = fixture_document("leibniz-L2")
    doc["ops"]["bracket"][0]["out"]["0"] = "7" * 5001
    p = tmp_path / "big.json"
    p.write_text(json.dumps(doc))
    code, _, err = run(capsys, "check", str(p))
    assert code == 2
    assert "document.ops.bracket[0].out.0" in err and "digits" in err


def test_check_oversized_integer_literal_is_input_error(tmp_path, capsys):
    # a JSON number literal, not a string, past the same 4300-digit limit
    text = json.dumps(fixture_document("leibniz-L2"))
    p = tmp_path / "big-order.json"
    p.write_text(text.replace('"cyclotomic_order": 1', '"cyclotomic_order": 1' + "0" * 5000))
    code, _, err = run(capsys, "check", str(p))
    assert code == 2
    assert "integer literal" in err and "digits" in err


def test_check_deeply_nested_document_is_input_error(tmp_path, capsys):
    p = tmp_path / "deep.json"
    p.write_text("[" * 100_000 + "]" * 100_000)
    code, _, err = run(capsys, "check", str(p))
    assert code == 2
    assert "recursion limit" in err


def test_check_machine_report_is_json(capsys):
    code, out, _ = run(capsys, "check", "fixtures/nonassoc-NA2", "--report", "machine")
    assert code == 0
    doc = json.loads(out)
    assert doc["schema"] == io.REPORT_SCHEMA
    assert doc["kind"] == "nonassociative"
    assert doc["flags"]["hom_associative"] is False
    # hom-associativity is advisory for this kind, so overall still passes
    entry = next(e for e in doc["results"] if e["identity"] == "hom-associativity")
    assert entry["advisory"] is True and entry["passed"] is False


def test_check_identity_filter_exact(capsys):
    code, out, _ = run(
        capsys, "check", "fixtures/leibniz-L2", "--identity", "skew-symmetry"
    )
    # the filtered view scores what it matched, and skew fails on L2
    assert code == 1
    assert "skew-symmetry" in out


def test_check_identity_filter_segment(capsys):
    code, out, _ = run(
        capsys,
        "check",
        "fixtures/leibniz-L2",
        "--identity",
        "leibniz-derived-bracket",
    )
    assert code == 0
    assert "leibniz-derived-bracket" in out


def test_check_identity_filter_no_match(capsys):
    code, _, err = run(
        capsys, "check", "fixtures/leibniz-L2", "--identity", "no-such-identity"
    )
    assert code == 2
    assert "error:" in err


def test_jobs_flag_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["check", "fixtures/leibniz-L2", "--jobs", "2"])
    assert exc.value.code == 2
    assert "--jobs" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# construct


def test_construct_akivis_writes_certified_document(tmp_path, capsys):
    out_path = tmp_path / "ak.json"
    code, _, _ = run(
        capsys, "construct", "akivis", "fixtures/nonassoc-NA2", str(out_path)
    )
    assert code == 0
    doc = io.loads_document(out_path.read_text())
    assert doc["kind"] == "akivis"
    assert doc["report"]["passed"] is True
    parsed = io.parse_document(doc)
    assert parsed.bundle.space.dim == 2


def test_construct_rejects_wrong_kind(capsys):
    code, _, err = run(capsys, "construct", "akivis", "fixtures/leibniz-L2", "-")
    assert code == 2
    assert "error:" in err


def test_construct_trivext_to_stdout(capsys):
    code, out, _ = run(capsys, "construct", "trivext", "fixtures/leibniz-L2", "-")
    assert code == 0
    doc = json.loads(out)
    assert doc["kind"] == "nhlp"
    assert [b["name"] for b in doc["basis"]] == ["e1", "e2", "u"]
    assert doc["report"]["flags"]["commutative"] is True


def test_construct_dialg2leibniz(capsys):
    code, out, _ = run(capsys, "construct", "dialg2leibniz", "fixtures/dialg-D2", "-")
    assert code == 0
    doc = json.loads(out)
    assert doc["kind"] == "nhlp"
    assert doc["ops"]["bracket"] == [{"args": [0, 1], "out": {"1": "1"}}]


def test_construct_tensor2_as_printed_writes_failing_output(tmp_path, capsys):
    te = tmp_path / "te.json"
    code, _, _ = run(capsys, "construct", "trivext", "fixtures/leibniz-L2", str(te))
    assert code == 0
    out_path = tmp_path / "sq.json"
    code, _, err = run(
        capsys,
        "construct",
        "tensor2",
        str(te),
        str(out_path),
        "--variant",
        "as-printed",
    )
    assert code == 1
    assert "hom-associativity" in err
    doc = io.loads_document(out_path.read_text())
    assert doc["report"]["passed"] is False  # written anyway, marked failing


def test_construct_variant_only_for_tensor2(capsys):
    code, out, err = run(capsys, "construct", "akivis", "fixtures/nonassoc-NA2", "-",
                         "--variant", "as-printed")
    assert code == 2
    assert out == ""
    assert "--variant" in err


def test_construct_tensor2_corrected_passes(tmp_path, capsys):
    te = tmp_path / "te.json"
    run(capsys, "construct", "trivext", "fixtures/leibniz-L2", str(te))
    code, out, _ = run(capsys, "construct", "tensor2", str(te), "-")
    assert code == 0
    doc = json.loads(out)
    assert doc["report"]["passed"] is True
    assert len(doc["basis"]) == 9


def test_construct_refusal_prints_report(tmp_path, capsys):
    # dialgebra that fails its axioms: construction refused with exit 1
    bad = {
        "schema": io.BUNDLE_SCHEMA,
        "kind": "dialgebra",
        "field": {"cyclotomic_order": 1},
        "grading": {"free_rank": 0, "torsion": []},
        "bicharacter": [],
        "basis": [{"name": "e1", "degree": []}, {"name": "e2", "degree": []}],
        "ops": {
            "left": [
                {"args": [0, 0], "out": {"0": "1"}},
                {"args": [0, 1], "out": {"0": "1"}},
            ],
            "right": [
                {"args": [0, 0], "out": {"0": "1"}},
                {"args": [0, 1], "out": {"1": "1"}},
            ],
        },
        "maps": {"alpha": [["1", "0"], ["0", "1"]]},
    }
    p = tmp_path / "bad.json"
    p.write_text(io.dumps_document(bad))
    code, _, err = run(capsys, "construct", "dialg2leibniz", str(p), "-")
    assert code == 1
    assert "refused" in err and "dialgebra-axiom-2" in err


# ---------------------------------------------------------------------------
# twist


def test_twist_akivis_with_named_map(capsys):
    code, out, _ = run(
        capsys,
        "twist",
        "fixtures/akivis-A",
        "-",
        "--map",
        "beta",
        "--power",
        "2",
    )
    assert code == 0
    doc = json.loads(out)
    entries = {tuple(e["args"]): e["out"] for e in doc["ops"]["bracket"]}
    assert entries == {(0, 1): {"1": "9"}, (1, 0): {"1": "-9"}}
    assert doc["report"]["passed"] is True


def test_twist_default_map_alpha_power_one(capsys):
    code, out, _ = run(capsys, "twist", "fixtures/leibniz-L2", "-")
    assert code == 0
    doc = json.loads(out)
    # alpha is the identity, so the twist is a no-op on the tables
    assert doc["ops"]["bracket"] == [{"args": [1, 1], "out": {"0": "1"}}]


def test_twist_unknown_map_is_input_error(capsys):
    code, _, err = run(capsys, "twist", "fixtures/leibniz-L2", "-", "--map", "gamma")
    assert code == 2
    assert "error:" in err


def test_twist_module_needs_flag(capsys):
    code, _, err = run(capsys, "twist", "fixtures/module-M", "-")
    assert code == 2
    code, out, _ = run(capsys, "twist", "fixtures/module-M", "-", "--module")
    assert code == 0
    doc = json.loads(out)
    assert doc["kind"] == "module"
    # identity algebra twist: twisting is an exact fixed point
    assert doc["ops"] == fixture_document("module-M")["ops"]


def test_twist_module_refuses_other_maps(capsys):
    code, out, err = run(capsys, "twist", "fixtures/module-M", "-", "--module",
                         "--map", "nosuch")
    assert code == 2
    assert out == ""
    assert "--map 'nosuch'" in err


def test_twist_non_endomorphism_refused(tmp_path, capsys):
    doc = fixture_document("akivis-A")
    p = tmp_path / "a.json"
    p.write_text(io.dumps_document(doc))
    code, _, err = run(
        capsys, "twist", str(p), "-", "--map", "beta", "--power", "1"
    )
    assert code == 0  # beta really is an endomorphism; power 1 passes
    bad = json.loads(json.dumps(doc))
    bad["maps"]["beta"] = [["2", "0"], ["0", "1"]]
    p.write_text(io.dumps_document(bad))
    code, _, err = run(capsys, "twist", str(p), "-", "--map", "beta")
    assert code == 1
    assert "refused" in err


def test_twist_oversized_output_coefficient_is_input_error(tmp_path, capsys):
    # 100**2200 has 4401 digits: the twist certifies, its document cannot be written
    doc = fixture_document("leibniz-L2")
    doc["maps"]["alpha"] = [["100", "0"], ["0", "10"]]
    p, out = tmp_path / "in.json", tmp_path / "out.json"
    p.write_text(json.dumps(doc))
    code, _, err = run(capsys, "twist", str(p), str(out), "--power", "2200")
    assert code == 2
    assert "output coefficient" in err and "digits" in err
    assert not out.exists()


def test_twist_refusal_with_oversized_defect_is_input_error(tmp_path, capsys):
    # beta is not an endomorphism of L2: the refusal's defect entry has about
    # 6000 digits, past the int-string limit, so the refusal cannot be printed
    doc = fixture_document("leibniz-L2")
    big = str(10**3000)
    doc["maps"]["beta"] = [[big, "0"], ["0", big]]
    p = tmp_path / "doc.json"
    p.write_text(json.dumps(doc))
    code, out, err = run(capsys, "twist", str(p), "-", "--map", "beta")
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and "digits" in err


@pytest.mark.parametrize("fmt", ["text", "machine"])
def test_check_oversized_law_defect_is_input_error(tmp_path, capsys, fmt):
    # every bracket constant of leibniz-L2-broken scaled to 10**2200: the
    # Leibniz law's defect entries are products of two of them, about 4400
    # digits, past the int-string limit, so no report can hold them
    doc = fixture_document("leibniz-L2-broken")
    big = str(10**2200)
    for entry in doc["ops"]["bracket"]:
        entry["out"] = {k: big for k in entry["out"]}
    p = tmp_path / "doc.json"
    p.write_text(json.dumps(doc))
    code, out, err = run(capsys, "check", str(p), "--report", fmt)
    assert code == 2
    assert out == ""
    assert "output coefficient" in err and "digits" in err


# ---------------------------------------------------------------------------
# examples


def test_examples_listing(capsys):
    code, out, _ = run(capsys, "examples")
    assert code == 0
    for name in fixture_names():
        assert name in out


def test_examples_emit_document_checks_green(tmp_path, capsys):
    code, out, _ = run(capsys, "examples", "dialg-D2")
    assert code == 0
    doc = json.loads(out)
    p = tmp_path / "d2.json"
    p.write_text(json.dumps(doc))
    code, out, _ = run(capsys, "check", str(p))
    assert code == 0


def test_examples_unknown_name(capsys):
    code, _, err = run(capsys, "examples", "nope")
    assert code == 2


# ---------------------------------------------------------------------------
# parser plumbing


def test_version_flag(capsys):
    import colorhom

    with pytest.raises(SystemExit) as exc:
        cli.main(["--version"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    assert colorhom.__version__ in out


def test_output_files_end_with_newline(tmp_path, capsys):
    out_path = tmp_path / "t.json"
    run(capsys, "construct", "trivext", "fixtures/leibniz-L2", str(out_path))
    assert out_path.read_text().endswith("\n")


# ---------------------------------------------------------------------------
# the README's examples


README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_check_sample(capsys):
    """The sample run of ``colorhom check``, digest line included."""
    lines = README.read_text(encoding="utf-8").splitlines()
    start = lines.index("$ colorhom check fixtures/leibniz-L2") + 1
    sample = lines[start:lines.index("```", start)]
    code, out, _ = run(capsys, "check", "fixtures/leibniz-L2")
    assert code == 0
    assert out.splitlines() == sample


def test_readme_library_sample():
    """The commented output of ``rep.describe(limit=2)`` in the Library
    section."""
    lines = README.read_text(encoding="utf-8").splitlines()
    start = lines.index("print(rep.describe(limit=2))") + 1
    sample = [line[2:] for line in lines[start:lines.index("```", start)]]
    rep = check_color_leibniz(fixture("leibniz-L2-broken").bundle)
    assert rep.describe(limit=2).splitlines() == sample

"""``pdcunplugged lint`` through ``main(argv)``: flags and exit codes."""

from __future__ import annotations

import json

from repro.cli import main

from tests.lint.conftest import GOOD


def test_shipped_corpus_exits_zero(capsys):
    assert main(["lint"]) == 0
    assert capsys.readouterr().out.startswith("clean (")


def test_stats_flag(capsys):
    assert main(["lint", "--stats"]) == 0
    assert "analyzed" in capsys.readouterr().out


def test_findings_fail_with_exit_one(write_corpus, capsys):
    corpus = write_corpus(
        good=GOOD.replace('courses: ["CS1"]', 'courses: ["CS9"]'))
    code = main(["lint", "--content-dir", str(corpus), "--no-site",
                 "--no-code"])
    out = capsys.readouterr().out
    assert code == 1
    assert "[taxonomy-unknown-term]" in out
    assert "error:" in out


def test_fail_on_threshold(write_corpus, capsys):
    corpus = write_corpus(
        good=GOOD.replace('courses: ["CS1"]', 'courses: ["k12"]'))
    args = ["lint", "--content-dir", str(corpus), "--no-site", "--no-code"]
    assert main(args) == 0                      # warning < error
    capsys.readouterr()
    assert main(args + ["--fail-on", "warning"]) == 1


def test_disable_flag(write_corpus, capsys):
    corpus = write_corpus(
        good=GOOD.replace('courses: ["CS1"]', 'courses: ["CS9"]'))
    assert main(["lint", "--content-dir", str(corpus), "--no-site",
                 "--no-code", "--disable", "taxonomy-unknown-term"]) == 0


def test_severity_override_flag(write_corpus, capsys):
    corpus = write_corpus(
        good=GOOD.replace('courses: ["CS1"]', 'courses: ["CS9"]'))
    assert main(["lint", "--content-dir", str(corpus), "--no-site",
                 "--no-code", "--severity",
                 "taxonomy-unknown-term=info"]) == 0
    assert "info:" in capsys.readouterr().out


def test_bad_severity_spec_is_usage_error(capsys):
    assert main(["lint", "--severity", "nonsense"]) == 2
    assert main(["lint", "--severity", "taxonomy-unknown-term=loud"]) == 2
    assert main(["lint", "--disable", "no-such-rule"]) == 2


def test_json_format(capsys):
    assert main(["lint", "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["diagnostics"] == []


def test_sarif_output_file(tmp_path, capsys):
    out_file = tmp_path / "lint.sarif"
    assert main(["lint", "--format", "sarif", "--output",
                 str(out_file)]) == 0
    assert capsys.readouterr().out == ""
    doc = json.loads(out_file.read_text())
    assert doc["version"] == "2.1.0"
    assert doc["runs"][0]["results"] == []


FIXABLE = GOOD.replace('senses: ["visual"]', 'senses: ["Visual"]')


def test_check_without_fix_is_usage_error(capsys):
    assert main(["lint", "--check"]) == 2
    assert "--check requires --fix" in capsys.readouterr().err


def test_fix_check_reports_diff_without_touching(write_corpus, capsys):
    corpus = write_corpus(good=FIXABLE)
    before = (corpus / "good.md").read_bytes()
    code = main(["lint", "--fix", "--check", "--content-dir", str(corpus),
                 "--no-site", "--no-code"])
    out = capsys.readouterr().out
    assert code == 1
    assert "--- a/good.md" in out and '+senses: ["visual"]' in out
    assert "fix(es) pending" in out
    assert (corpus / "good.md").read_bytes() == before


def test_fix_applies_then_check_is_clean(write_corpus, capsys):
    corpus = write_corpus(good=FIXABLE)
    args = ["lint", "--content-dir", str(corpus), "--no-site", "--no-code"]
    assert main(args + ["--fix"]) == 0
    assert "applied 1 fix(es)" in capsys.readouterr().out
    assert 'senses: ["visual"]' in (corpus / "good.md").read_text()
    assert main(args + ["--fix", "--check"]) == 0
    assert "no fixes pending" in capsys.readouterr().out


def test_fix_reports_remaining_findings(write_corpus, capsys):
    corpus = write_corpus(
        good=FIXABLE.replace('courses: ["CS1"]', 'courses: ["CS9"]'))
    code = main(["lint", "--fix", "--content-dir", str(corpus), "--no-site",
                 "--no-code"])
    out = capsys.readouterr().out
    assert code == 1                      # the unknown term is not fixable
    assert "[taxonomy-unknown-term]" in out
    assert "[taxonomy-noncanonical-term]" not in out


def test_cache_dir_warm_run_analyzes_zero(write_corpus, tmp_path, capsys):
    corpus = write_corpus(good=GOOD)
    cache = tmp_path / "cache"
    args = ["lint", "--content-dir", str(corpus), "--no-site", "--no-code",
            "--stats", "--cache-dir", str(cache)]
    assert main(args) == 0
    assert "1 analyzed" in capsys.readouterr().out
    assert main(args) == 0
    assert "0 analyzed" in capsys.readouterr().out


def test_write_baseline_then_filter(write_corpus, tmp_path, capsys):
    corpus = write_corpus(
        good=GOOD.replace('courses: ["CS1"]', 'courses: ["CS9"]'))
    baseline = tmp_path / "base.json"
    args = ["lint", "--content-dir", str(corpus), "--no-site", "--no-code",
            "--baseline", str(baseline)]
    assert main(args + ["--write-baseline"]) == 0
    assert "baseline written" in capsys.readouterr().out
    assert main(args) == 0                # baselined finding no longer fails
    assert main(["lint", "--content-dir", str(corpus), "--no-site",
                 "--no-code"]) == 1       # without the baseline it still does


def test_write_baseline_requires_baseline_path(capsys):
    assert main(["lint", "--write-baseline"]) == 2
    assert "--write-baseline requires" in capsys.readouterr().err


def test_corrupt_baseline_is_usage_error(write_corpus, tmp_path, capsys):
    corpus = write_corpus(good=GOOD)
    baseline = tmp_path / "base.json"
    baseline.write_text("{nope", encoding="utf-8")
    assert main(["lint", "--content-dir", str(corpus), "--no-site",
                 "--no-code", "--baseline", str(baseline)]) == 2


def test_json_counts_include_fixable(write_corpus, capsys):
    corpus = write_corpus(good=FIXABLE)
    main(["lint", "--format", "json", "--content-dir", str(corpus),
          "--no-site", "--no-code"])
    payload = json.loads(capsys.readouterr().out)
    assert payload["counts"]["fixable"] == 1
    assert payload["fixes"][0]["rule"] == "taxonomy-noncanonical-term"


def test_sarif_carries_fix_objects(write_corpus, tmp_path, capsys):
    corpus = write_corpus(good=FIXABLE)
    out_file = tmp_path / "lint.sarif"
    main(["lint", "--format", "sarif", "--content-dir", str(corpus),
          "--no-site", "--no-code", "--output", str(out_file)])
    doc = json.loads(out_file.read_text())
    results = doc["runs"][0]["results"]
    fixed = [r for r in results if "fixes" in r]
    assert len(fixed) == 1
    change = fixed[0]["fixes"][0]["artifactChanges"][0]
    replacement = change["replacements"][0]
    assert replacement["insertedContent"]["text"] == "visual"
    assert replacement["deletedRegion"]["startLine"] == 7


MIXED = FIXABLE.replace('courses: ["CS1"]', 'courses: ["CS9"]')


def test_select_keeps_only_listed_rules(write_corpus, capsys):
    corpus = write_corpus(good=MIXED)
    args = ["lint", "--content-dir", str(corpus), "--no-site", "--no-code"]
    code = main(args + ["--select", "taxonomy-noncanonical-term"])
    out = capsys.readouterr().out
    assert code == 0                      # only the warning survives
    assert "[taxonomy-noncanonical-term]" in out
    assert "[taxonomy-unknown-term]" not in out


def test_ignore_drops_listed_rules(write_corpus, capsys):
    corpus = write_corpus(good=MIXED)
    args = ["lint", "--content-dir", str(corpus), "--no-site", "--no-code"]
    code = main(args + ["--disable",
                        "taxonomy-unknown-term,taxonomy-noncanonical-term"])
    assert code == 0
    assert capsys.readouterr().out.startswith("clean (")


def test_select_comma_and_repeat_forms_agree(write_corpus, capsys):
    corpus = write_corpus(good=MIXED)
    args = ["lint", "--content-dir", str(corpus), "--no-site", "--no-code"]
    main(args + ["--select",
                 "taxonomy-unknown-term,taxonomy-noncanonical-term"])
    combined = capsys.readouterr().out
    main(args + ["--select", "taxonomy-unknown-term",
                 "--select", "taxonomy-noncanonical-term"])
    assert capsys.readouterr().out == combined


def test_select_unknown_rule_is_usage_error(capsys):
    assert main(["lint", "--select", "no-such-rule"]) == 2
    assert main(["lint", "--disable", "no-such-rule"]) == 2


def test_select_composes_with_cache(write_corpus, tmp_path, capsys):
    """Report-time filtering: warm cache stays warm under --select."""
    corpus = write_corpus(good=MIXED)
    cache = tmp_path / "cache"
    args = ["lint", "--content-dir", str(corpus), "--no-site", "--no-code",
            "--stats", "--cache-dir", str(cache)]
    main(args)
    assert "1 analyzed" in capsys.readouterr().out
    code = main(args + ["--select", "taxonomy-noncanonical-term"])
    out = capsys.readouterr().out
    assert code == 0
    assert "0 analyzed" in out            # select did not invalidate
    assert "[taxonomy-noncanonical-term]" in out

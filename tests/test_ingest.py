"""Sandbox-report ingestion: extraction, normalization, config, errors.

The golden fixture in data/cuckoo_report.json was written by hand together
with its expected token list (data/cuckoo_expected_tokens.json); the list
below is the same expectation frozen inline so a drift in either copy fails.
"""

import json
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from taskinfer.ingest import (
    ExtractionConfig,
    ReportError,
    load_extraction_config,
    normalize_path,
    parse_report,
)

DATA = Path(__file__).parent / "data"

GOLDEN_ID = "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
GOLDEN_TOKENS = [
    "fileAct:c:\\documents and settings\\<user>\\desktop\\report.docx",
    "fileAct:c:\\users\\<user>\\appdata\\local\\temp\\tmp<r>.tmp",
    "fileAct:c:\\users\\<user>\\appdata\\roaming\\svchost.exe",
    "fileAct:c:\\windows\\temp\\tmp<r>.tmp",
    "proAct",
    "regAct:hkcu\\software\\classes\\<guid>\\shell",
    "regAct:hkcu\\software\\evilcorp\\updater",
    "regAct:hklm\\software\\microsoft\\windows\\currentversion\\run",
    "usesDLL:advapi32.dll",
    "usesDLL:kernel32.dll",
    "usesDLL:ws2_32.dll",
]


def golden_report_bytes() -> bytes:
    return (DATA / "cuckoo_report.json").read_bytes()


class TestGoldenReport:
    def test_exact_token_list(self):
        sample = parse_report(golden_report_bytes())
        assert sample.id == GOLDEN_ID
        assert sorted(sample.attribs) == GOLDEN_TOKENS
        assert sample.family is None and sample.tasks is None

    def test_expected_file_matches_the_inline_freeze(self):
        expected = json.loads((DATA / "cuckoo_expected_tokens.json").read_text())
        assert expected["id"] == GOLDEN_ID
        assert expected["tokens"] == GOLDEN_TOKENS

    def test_static_imports_are_opt_in(self):
        config = ExtractionConfig(use_static=True)
        sample = parse_report(golden_report_bytes(), config)
        extra = set(sample.attribs) - set(GOLDEN_TOKENS)
        assert extra == {"usesDLL:shell32.dll", "usesDLL:user32.dll"}

    def test_kind_toggles_remove_their_tokens(self):
        report = golden_report_bytes()
        no_dll = parse_report(report, ExtractionConfig(use_dlls=False))
        assert not any(a.startswith("usesDLL:") for a in no_dll.attribs)
        no_reg = parse_report(report, ExtractionConfig(use_registry=False))
        assert not any(a.startswith("regAct:") for a in no_reg.attribs)
        no_file = parse_report(report, ExtractionConfig(use_files=False))
        assert not any(a.startswith("fileAct:") for a in no_file.attribs)
        no_proc = parse_report(report, ExtractionConfig(use_process=False))
        assert "proAct" not in no_proc.attribs

    def test_attribute_cap_keeps_the_smallest_tokens(self):
        sample = parse_report(golden_report_bytes(),
                              ExtractionConfig(max_attributes=3))
        assert sorted(sample.attribs) == GOLDEN_TOKENS[:3]

    def test_raw_case_is_kept_when_folding_is_off(self):
        config = ExtractionConfig(fold_case=False)
        sample = parse_report(golden_report_bytes(), config)
        assert "usesDLL:KERNEL32.DLL" in sample.attribs


class TestNormalizePath:
    @pytest.mark.parametrize(
        "raw, expected",
        [
            ("C:/Users/Bob/Documents", "c:\\users\\<user>\\documents"),
            ("C:\\Users\\Bob", "c:\\users\\<user>"),
            ("C:\\Users\\O'Neil Jr\\run.exe", "c:\\users\\<user>\\run.exe"),
            ("C:\\Documents and Settings\\Alice\\x",
             "c:\\documents and settings\\<user>\\x"),
            ("D:\\data\\{3A5B9E21-77C4-4D0A-8E11-92F2D34C81AB}\\f",
             "d:\\data\\<guid>\\f"),
            ("C:\\Temp\\tmp3F2A.tmp", "c:\\temp\\tmp<r>.tmp"),
            ("C:\\Temp\\TMPDEAD.TMP", "c:\\temp\\tmp<r>.tmp"),
            # Too short or non-hex suffixes are real names, not cache noise.
            ("C:\\Temp\\tmp1.tmp", "c:\\temp\\tmp1.tmp"),
            ("C:\\Temp\\tmpXYZ.tmp", "c:\\temp\\tmpxyz.tmp"),
            ("  C:\\padded\\path.exe  ", "c:\\padded\\path.exe"),
        ],
    )
    def test_normalization_rules(self, raw, expected):
        assert normalize_path(raw) == expected

    def test_rules_can_be_disabled_independently(self):
        raw = "C:\\Users\\Bob\\{3A5B9E21-77C4-4D0A-8E11-92F2D34C81AB}\\tmpAB.tmp"
        keep_user = normalize_path(raw, ExtractionConfig(scrub_user_dirs=False))
        assert "\\bob\\" in keep_user
        keep_guid = normalize_path(raw, ExtractionConfig(scrub_guids=False))
        assert "{3a5b9e21-" in keep_guid
        keep_tmp = normalize_path(raw, ExtractionConfig(scrub_temp_names=False))
        assert keep_tmp.endswith("tmpab.tmp")
        no_fold = normalize_path(raw, ExtractionConfig(fold_case=False))
        assert "\\Users\\" in no_fold

    @pytest.mark.parametrize(
        "raw",
        [
            "C:/Users/Bob/AppData/Local/Temp/tmp3F2A.tmp",
            "C:\\Users\\<user>\\already\\done",
            "C:\\Documents and Settings\\<user>",
            "\\\\server\\share\\{ABC}",
            "relative/path/with/slashes",
            "C:\\Users\\Bob",
        ],
    )
    def test_normalization_is_idempotent_on_known_shapes(self, raw):
        once = normalize_path(raw)
        assert normalize_path(once) == once

    @given(
        st.lists(
            st.sampled_from(
                ["Users", "BOB", "alice smith", "<user>", "<guid>", "Temp",
                 "tmp3F2A.tmp", "tmpAB.tmp", "Documents and Settings",
                 "{3A5B9E21-77C4-4D0A-8E11-92F2D34C81AB}", "run.EXE", ".."]
            ),
            min_size=1,
            max_size=6,
        ),
        st.sampled_from(["/", "\\"]),
    )
    @settings(max_examples=300, deadline=None)
    def test_normalization_is_idempotent_on_generated_paths(self, parts, sep):
        raw = "C:" + sep + sep.join(parts)
        once = normalize_path(raw)
        assert normalize_path(once) == once


class TestParseReportIdentity:
    def _report(self, **over):
        doc = {
            "target": {"file": {}},
            "info": {},
            "behavior": {"summary": {"dll_loaded": ["a.dll"]}},
        }
        doc["target"]["file"].update(over.get("file", {}))
        doc["info"].update(over.get("info", {}))
        return json.dumps(doc)

    def test_prefers_sha256_then_md5_then_run_id(self):
        s = parse_report(self._report(file={"sha256": "S", "md5": "M"},
                                      info={"id": 7}))
        assert s.id == "S"
        s = parse_report(self._report(file={"md5": "M"}, info={"id": 7}))
        assert s.id == "M"
        s = parse_report(self._report(info={"id": 7}))
        assert s.id == "7"

    def test_missing_identity_is_an_error(self):
        with pytest.raises(ReportError, match="no sample identity"):
            parse_report(self._report())


class TestParseReportErrors:
    def test_malformed_json_names_the_location(self):
        with pytest.raises(ReportError, match=r"report\.json: malformed report "
                                               r"JSON.*line 1, column 2") as exc:
            parse_report("{oops", location="report.json")
        assert exc.value.location == "report.json"

    def test_non_object_document(self):
        with pytest.raises(ReportError, match="not a JSON object"):
            parse_report("[1, 2]")

    def test_missing_behavior_section(self):
        doc = json.dumps({"target": {"file": {"sha256": "S"}}})
        with pytest.raises(ReportError, match="missing behavior section"):
            parse_report(doc)

    def test_non_object_summary_is_an_error(self):
        doc = json.dumps({
            "target": {"file": {"sha256": "S"}},
            "behavior": {"summary": ["a.dll"]},
        })
        with pytest.raises(ReportError, match="r.json: behavior.summary is not a JSON object"):
            parse_report(doc, location="r.json")

    def test_non_object_target_file_is_an_error(self):
        doc = json.dumps({
            "target": {"file": "C:\\samples\\sample.exe"},
            "behavior": {"summary": {"dll_loaded": ["a.dll"]}},
        })
        with pytest.raises(ReportError, match="target.file is not a JSON object"):
            parse_report(doc)

    def test_non_string_hash_is_an_error(self):
        doc = json.dumps({
            "target": {"file": {"sha256": 123456789}},
            "behavior": {"summary": {"dll_loaded": ["a.dll"]}},
        })
        with pytest.raises(ReportError, match="target.file.sha256 is not a string"):
            parse_report(doc)

    def test_empty_extraction_is_an_error(self):
        doc = json.dumps({
            "target": {"file": {"sha256": "S"}},
            "behavior": {"summary": {}, "processes": []},
        })
        with pytest.raises(ReportError, match="no attributes extracted"):
            parse_report(doc)

    def test_bytes_input_is_decoded(self):
        doc = json.dumps({
            "target": {"file": {"sha256": "S"}},
            "behavior": {"summary": {"dll_loaded": ["a.dll"]}},
        }).encode("utf-8")
        assert parse_report(doc).attribs == frozenset({"usesDLL:a.dll"})

    def test_malformed_list_fields_are_ignored_not_fatal(self):
        doc = json.dumps({
            "target": {"file": {"sha256": "S"}},
            "behavior": {
                "summary": {"dll_loaded": "not-a-list",
                            "file_created": ["C:\\x"]},
                "processes": "also-not-a-list",
            },
        })
        sample = parse_report(doc)
        assert sample.attribs == frozenset({"fileAct:c:\\x"})


class TestExtractionConfig:
    def test_json_round_trip(self):
        config = ExtractionConfig(use_static=True, max_attributes=50,
                                  fold_case=False)
        assert ExtractionConfig.from_dict(config.to_dict()) == config

    def test_dict_form_uses_attribute_kind_names(self):
        d = ExtractionConfig().to_dict()
        assert set(d) == {"usesDLL", "regAct", "fileAct", "proAct", "static",
                          "fold_case", "scrub_user_dirs", "scrub_guids",
                          "scrub_temp_names", "max_attributes"}

    def test_unknown_keys_are_rejected(self):
        with pytest.raises(ValueError, match=r"unknown extraction config keys: "
                                             r"\['networkAct'\]"):
            ExtractionConfig.from_dict({"networkAct": True})

    def test_all_kinds_off_is_rejected(self):
        with pytest.raises(ValueError, match="at least one attribute kind"):
            ExtractionConfig(use_dlls=False, use_registry=False,
                             use_files=False, use_process=False)

    def test_bad_cap_is_rejected(self):
        with pytest.raises(ValueError, match="max_attributes"):
            ExtractionConfig(max_attributes=0)

    def test_load_from_file(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"static": True, "max_attributes": 9}))
        config = load_extraction_config(path)
        assert config.use_static is True
        assert config.max_attributes == 9
        path.write_text("{broken")
        with pytest.raises(ReportError, match="malformed config JSON"):
            load_extraction_config(path)

"""Sandbox-report ingestion: extraction, normalization, config, errors.

The golden fixture in data/cuckoo_report.json was written by hand together
with its expected token list (data/cuckoo_expected_tokens.json); the list
below is the same expectation frozen inline so a drift in either copy fails.
"""

import itertools
import json
from dataclasses import asdict
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import reference_normalize_path
from taskinfer import ingest
from taskinfer.core import Sample, read_corpus_records, write_corpus_records
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
        config = ExtractionConfig(static=True)
        sample = parse_report(golden_report_bytes(), config)
        extra = set(sample.attribs) - set(GOLDEN_TOKENS)
        assert extra == {"usesDLL:shell32.dll", "usesDLL:user32.dll"}

    def test_kind_toggles_remove_their_tokens(self):
        report = golden_report_bytes()
        no_dll = parse_report(report, ExtractionConfig(usesDLL=False))
        assert not any(a.startswith("usesDLL:") for a in no_dll.attribs)
        no_reg = parse_report(report, ExtractionConfig(regAct=False))
        assert not any(a.startswith("regAct:") for a in no_reg.attribs)
        no_file = parse_report(report, ExtractionConfig(fileAct=False))
        assert not any(a.startswith("fileAct:") for a in no_file.attribs)
        no_proc = parse_report(report, ExtractionConfig(proAct=False))
        assert "proAct" not in no_proc.attribs

    def test_attribute_cap_keeps_the_smallest_tokens(self):
        sample = parse_report(golden_report_bytes(),
                              ExtractionConfig(max_attributes=3))
        assert sorted(sample.attribs) == GOLDEN_TOKENS[:3]

    def test_raw_case_is_kept_when_folding_is_off(self):
        config = ExtractionConfig(fold_case=False)
        sample = parse_report(golden_report_bytes(), config)
        assert "usesDLL:KERNEL32.DLL" in sample.attribs


# Path pieces for the gate property: the letters that re.IGNORECASE matches
# to ASCII ones, both separators, GUID and tmp-name parts, and the literals
# the scrub regexes need, in both cases.
_PATH_PIECES = ["ſ", "ı", "K", "İ", "s", "i", "k", "/", "\\", "{", "}", "-", "0",
                "9", "a", "F", "3f2a", "12345678", "tmp", ".tmp", "TMP", "users",
                "USERS", "documents and settings", "Documents And Settings",
                "<user>", "<USER>", "bob", " ",
                "{3A5B9E21-77C4-4D0A-8E11-92F2D34C81AB}"]
# Profile directories whose user name holds a later scrub's literal ({, a
# GUID, a tmp name): the user scrub removes it, so that scrub's gate, read
# before the user scrub, passes on a path whose regex then matches nothing.
_PROFILE_DIRS = st.builds(
    "{}{}{}".format,
    st.sampled_from(["\\Users\\", "/users/", "\\Documents and Settings\\"]),
    st.lists(st.sampled_from(["{", "}", "tmpab.tmp", "TMP3F2A.TMP", "bob",
                              "{3A5B9E21-77C4-4D0A-8E11-92F2D34C81AB}"]),
             min_size=1, max_size=3).map("".join),
    st.sampled_from(["", "\\", "/"]))
_GATED_PATHS = st.lists(st.sampled_from(_PATH_PIECES) | _PROFILE_DIRS, max_size=14).map("".join)
# fold_case and the three scrub toggles, in all 16 combinations.
_SCRUB_CONFIGS = [
    ExtractionConfig(fold_case=f, scrub_user_dirs=u, scrub_guids=g, scrub_temp_names=t)
    for f, u, g, t in itertools.product((False, True), repeat=4)]


def _config_id(config: ExtractionConfig) -> str:
    return (f"fold{config.fold_case:d}-users{config.scrub_user_dirs:d}"
            f"-guids{config.scrub_guids:d}-tmp{config.scrub_temp_names:d}")


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
            # re.IGNORECASE matches "ſ" to "s" and "ı" to "i".  Neither
            # lower() nor casefold() gates that: "ı".casefold() is "ı".
            ("C:\\Uſers\\bob\\x.txt", "c:\\uſers\\<user>\\x.txt"),
            ("C:\\Documents and Settıngs\\bob\\x",
             "c:\\documents and settıngs\\<user>\\x"),
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

    @pytest.mark.parametrize("config", _SCRUB_CONFIGS, ids=_config_id)
    @given(raw=_GATED_PATHS)
    @example(raw="C:\\Documents and Settıngs\\bob\\x")
    @example(raw="C:\\Uſers\\bob\\x.txt")
    @example(raw="HKLM\\{3A5B9E21-77C4-4D0A-8E11-92F2D34C81AB}\\TMP3F2A.TMP")
    @settings(max_examples=150, deadline=None)
    def test_gated_regexes_give_the_full_chain(self, config, raw):
        """A scrub regex skipped on an ASCII path whose lower case, read
        before every scrub, lacks its literal changes nothing (no scrub adds
        a later one's literal), and a non-ASCII path runs every regex: there
        re.IGNORECASE matches letters that no lower() or casefold() shows,
        "ı" to "i" although "ı".casefold() is "ı"."""
        assert normalize_path(raw, config) == reference_normalize_path(raw, config)


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

    @pytest.mark.parametrize("run_id", [{"a": 1}, True, 1.5, [1, 2]])
    def test_run_id_of_another_type_is_an_error(self, run_id):
        with pytest.raises(ReportError,
                           match="r.json: info.id is not a string or an integer"):
            parse_report(self._report(info={"id": run_id}), location="r.json")


class TestParseReportErrors:
    def test_malformed_json_names_the_location(self):
        with pytest.raises(ReportError) as exc:
            parse_report("{oops", location="report.json")
        assert str(exc.value) == ("report.json: invalid JSON "
                                  "(Expecting property name enclosed in double quotes)")
        assert exc.value.location == "report.json"

    def test_non_object_document(self):
        with pytest.raises(ReportError, match="r.json: expected a JSON object"):
            parse_report("[1, 2]", location="r.json")

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


# Any JSON value, and report-shaped documents in which every section is
# either of the type the ingester reads or arbitrary JSON.
_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=12),
    lambda inner: (st.lists(inner, max_size=4)
                   | st.dictionaries(st.text(max_size=8), inner, max_size=4)),
    max_leaves=12,
)
_SUMMARY_FIELDS = ("dll_loaded", "regkey_opened", "regkey_read", "regkey_written",
                   "regkey_deleted", "file_created", "file_opened", "file_read",
                   "file_written", "file_deleted", "file_moved")


def _report_shaped(loose: bool):
    """Cuckoo-like documents; with `loose`, any section may be arbitrary JSON."""
    def section(strategy):
        return strategy | _JSON if loose else strategy

    def fields(**optional):
        return st.fixed_dictionaries({}, optional=optional)

    entries = st.lists(st.text(max_size=20) | (_JSON if loose else st.nothing()),
                       max_size=4)
    return fields(
        target=section(fields(file=section(fields(sha256=section(st.text(max_size=8)),
                                                  md5=section(st.text(max_size=8)))))),
        info=section(fields(id=_JSON)),
        behavior=section(fields(
            summary=section(st.dictionaries(st.sampled_from(_SUMMARY_FIELDS),
                                            section(entries), max_size=4)),
            processes=_JSON)),
        static=section(fields(pe_imports=section(st.lists(fields(dll=_JSON), max_size=3)))),
    )


def _as_input(doc):
    """The document as JSON text or as UTF-8 bytes (lone surrogates passed
    through, so decoding has to replace them)."""
    text = json.dumps(doc, ensure_ascii=False)
    return st.sampled_from([text, text.encode("utf-8", "surrogatepass")])


_CONFIGS = st.sampled_from([ExtractionConfig(), ExtractionConfig(static=True),
                            ExtractionConfig(usesDLL=False, max_attributes=2)])


class TestParseReportProperties:
    @given(data=(st.one_of(_JSON, _report_shaped(loose=True)).flatmap(_as_input)
                 | st.text() | st.binary()),
           config=_CONFIGS)
    @example(data='{"info": {"id": ' + "9" * 5000 + "}}", config=ExtractionConfig())
    @example(data="[" * 100_000 + "]" * 100_000, config=ExtractionConfig())
    @settings(max_examples=300, deadline=None)
    def test_any_input_gives_a_sample_or_a_report_error(self, data, config):
        try:
            sample = parse_report(data, config)
        except ReportError:
            return
        assert isinstance(sample, Sample)
        assert isinstance(sample.id, str) and sample.id
        assert sample.attribs and all(isinstance(a, str) for a in sample.attribs)
        assert sample.family is None and sample.tasks is None

    @given(docs=st.lists(_report_shaped(loose=False), max_size=6), config=_CONFIGS)
    @settings(max_examples=100, deadline=None)
    def test_parsed_samples_survive_a_corpus_file(self, docs, config, tmp_path_factory):
        kept = {}
        for doc in docs:
            try:
                sample = parse_report(json.dumps(doc), config)
            except ReportError:
                continue
            kept.setdefault(sample.id, sample)  # ingest keeps the first report
        path = tmp_path_factory.mktemp("roundtrip") / "corpus.jsonl"
        write_corpus_records(path, kept.values(), {})
        assert read_corpus_records(path) == ({}, list(kept.values()))


# Any valid ExtractionConfig: at least one kind on, cap None or 1..50.
_VALID_CONFIGS = st.fixed_dictionaries({
    **{name: st.booleans() for name in ("usesDLL", "regAct", "fileAct", "proAct", "static",
                                         "fold_case", "scrub_user_dirs", "scrub_guids",
                                         "scrub_temp_names")},
    "max_attributes": st.none() | st.integers(1, 50),
}).filter(lambda d: d["usesDLL"] or d["regAct"] or d["fileAct"] or d["proAct"]).map(
    lambda d: ExtractionConfig(**d))


class TestExtractionConfig:
    @given(config=_VALID_CONFIGS)
    @example(config=ExtractionConfig(static=True, max_attributes=50, fold_case=False))
    @settings(max_examples=200, deadline=None)
    def test_json_round_trip(self, config):
        assert ExtractionConfig.from_dict(asdict(config)) == config

    def test_dict_form_uses_attribute_kind_names(self):
        d = asdict(ExtractionConfig())
        assert set(d) == {"usesDLL", "regAct", "fileAct", "proAct", "static",
                          "fold_case", "scrub_user_dirs", "scrub_guids",
                          "scrub_temp_names", "max_attributes"}
        # Each kind's toggle is named by its token prefix.
        assert {kind for kind, _, _ in ingest._KINDS} | {"proAct", "static"} <= set(d)

    def test_old_python_names_are_gone(self):
        with pytest.raises(TypeError):
            ExtractionConfig(use_dlls=False)

    def test_unknown_keys_are_rejected(self):
        with pytest.raises(ValueError, match=r"unknown extraction config keys: "
                                             r"\['networkAct'\]"):
            ExtractionConfig.from_dict({"networkAct": True})

    def test_all_kinds_off_is_rejected(self):
        with pytest.raises(ValueError, match="at least one attribute kind"):
            ExtractionConfig(usesDLL=False, regAct=False,
                             fileAct=False, proAct=False)

    def test_bad_cap_is_rejected(self):
        with pytest.raises(ValueError, match="max_attributes"):
            ExtractionConfig(max_attributes=0)

    def test_load_from_file(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"static": True, "max_attributes": 9}))
        config = load_extraction_config(path)
        assert config.static is True
        assert config.max_attributes == 9
        path.write_text("{broken")
        with pytest.raises(ReportError, match=r"invalid JSON \(Expecting property name"):
            load_extraction_config(path)

    @pytest.mark.parametrize("content,message", [
        (b'{"bogus": true}', "unknown extraction config keys: ['bogus']"),
        (b'{"max_attributes": true}',
         "max_attributes must be null or an integer, got True"),
        (b'{"static": "\xff"}', "not UTF-8 text (invalid start byte)"),
        (b'{"static": true', "invalid JSON (Expecting ',' delimiter)"),
        (b'[{"static": true}]', "expected a JSON object"),
    ], ids=["unknown-key", "bad-value", "not-utf8", "invalid-json", "not-an-object"])
    def test_file_errors_name_the_file(self, tmp_path, content, message):
        path = tmp_path / "config.json"
        path.write_bytes(content)
        with pytest.raises(ReportError) as exc:
            load_extraction_config(path)
        assert str(exc.value) == f"{path}: {message}"
        assert exc.value.location == str(path)

    @pytest.mark.parametrize("content,message", [
        (b"[" * 100_000 + b"]" * 100_000, "maximum recursion depth exceeded"),
        (b'{"max_attributes": ' + b"9" * 5000 + b"}", "Exceeds the limit (4300 digits)"),
    ], ids=["too-deep", "too-many-digits"])
    def test_json_that_cannot_be_built_names_the_file(self, tmp_path, content, message):
        path = tmp_path / "config.json"
        path.write_bytes(content)
        with pytest.raises(ReportError) as exc:
            load_extraction_config(path)
        assert str(exc.value).startswith(f"{path}: unreadable JSON ({message}")
        assert exc.value.location == str(path)

"""Sandbox report ingestion: behavior JSON in, attribute sets out.

Accepts Cuckoo-style dynamic-analysis reports (one JSON document per run)
and flattens the behavioral summary into the four attribute kinds:

    usesDLL:<name>    loaded library (basename, normalized)
    regAct:<key>      touched registry key (normalized, hive shortened)
    fileAct:<path>    touched file path (normalized)
    proAct            the run spawned or manipulated processes

Accepted report fields (everything else is ignored):

    target.file.sha256 | target.file.md5 | info.id     sample identity (the
                                                       hashes strings, info.id
                                                       a string or an integer)
    behavior.summary.dll_loaded                        -> usesDLL
    behavior.summary.regkey_opened / regkey_read
        / regkey_written / regkey_deleted              -> regAct
    behavior.summary.file_created / file_opened / file_read
        / file_written / file_deleted / file_moved     -> fileAct
    behavior.processes (non-empty list)                -> proAct
    static.pe_imports[].dll                            -> usesDLL
                                                       (only when the static
                                                        toggle is on)

JSON is decoded in one place, `core.json_object`.  The one reader of
JSON-lines files, `core.read_json_lines` (the mirror of `write_json_lines`),
decodes each corpus line through it, and `_document` each report and config:
a file that holds no JSON object fails with the reason a corpus line would
give, after the file name ("r.json: invalid JSON (Expecting value)").
Reports decode lossily: bytes that are not UTF-8 become U+FFFD.

A summary field that is not a list is skipped, and so is each entry of one
that is not a non-blank string: a report's malformed fields cost only their
own tokens, never the report.

The three summary-fed kinds are defined in one place, the `_KINDS` table:
each row names the kind, the summary fields it reads and how one entry
becomes a value (an empty value adds no token), and `parse_report` reads
every kind through that table in one loop.  A kind's token prefix is also
the name of its ExtractionConfig toggle, so every extraction setting has one
name, the same in Python and in the JSON config.  A new kind, or a new field
of a kind, is one row or one name there (plus, for a new kind, its toggle).

Path normalization makes attribute tokens comparable across runs: separators
unified to backslashes, case folded, per-user profile directories collapsed
to <user>, braced GUIDs to <guid>, cache-style tmpXXXX.tmp names to
tmp<r>.tmp.  Every rule is idempotent, so normalizing twice is a no-op.
Registry keys additionally get their hive shortened (hklm, hkcu, hkcr, hku,
hkcc).  A scrub regex runs on an ASCII path only when the literal that each
of its matches holds (\\users\\, \\documents and settings\\, {, tmp) is in the
path's lower case, taken once before the scrubs (a scrub can remove a later
step's literal but never add one); a non-ASCII path takes the full regex
chain, since re.IGNORECASE also matches letters such as "ſ" and "ı" to ASCII
ones.

Each distinct entry is normalized once per `ingest` call: the command hands
every report of the call one token table (`parse_report`'s `table`), which
maps each kind's raw entries to their interned tokens and goes when the call
ends.
"""

from __future__ import annotations

import re
import sys
from dataclasses import dataclass, fields
from typing import Iterator

from .core import Sample, json_object


class ReportError(ValueError):
    """A report could not be parsed or yielded no attributes."""

    def __init__(self, message: str, location: str = ""):
        super().__init__(f"{location}: {message}" if location else message)
        self.location = location


@dataclass(frozen=True)
class ExtractionConfig:
    """Which attribute kinds to extract and which normalizations to apply.

    Each field name is also its key in the JSON form (for `taskinfer ingest
    --report-config`), and a kind's toggle is named by its token prefix:
    {"usesDLL": true, "regAct": true, "fileAct": true, "proAct": true,
    "static": false, "fold_case": true, "scrub_user_dirs": true,
    "scrub_guids": true, "scrub_temp_names": true, "max_attributes": null}.
    `static` adds usesDLL tokens from static PE imports.
    """

    usesDLL: bool = True
    regAct: bool = True
    fileAct: bool = True
    proAct: bool = True
    static: bool = False
    fold_case: bool = True
    scrub_user_dirs: bool = True
    scrub_guids: bool = True
    scrub_temp_names: bool = True
    max_attributes: int | None = None

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if f.name == "max_attributes" and not (value is None or type(value) is int):
                raise ValueError(f"{f.name} must be null or an integer, got {value!r}")
            if f.name != "max_attributes" and type(value) is not bool:
                raise ValueError(f"{f.name} must be true or false, got {value!r}")
        if not (self.usesDLL or self.regAct or self.fileAct or self.proAct):
            raise ValueError("at least one attribute kind must be enabled")
        if self.max_attributes is not None and self.max_attributes < 1:
            raise ValueError("max_attributes must be >= 1 when set")

    @classmethod
    def from_dict(cls, obj: dict) -> "ExtractionConfig":
        unknown = sorted(set(obj) - {f.name for f in fields(cls)})
        if unknown:
            raise ValueError(f"unknown extraction config keys: {unknown}")
        return cls(**obj)


# The scrub steps of `normalize_path`, in order: the ExtractionConfig toggle,
# the literal that every match holds (in lower case), the regex, its
# replacement.
_SCRUBS = (
    ("scrub_user_dirs", "\\users\\",
     re.compile(r"(?<=\\users\\)(?!<user>(?:\\|$))[^\\]+", re.IGNORECASE), "<user>"),
    ("scrub_user_dirs", "\\documents and settings\\",
     re.compile(r"(?<=\\documents and settings\\)(?!<user>(?:\\|$))[^\\]+",
                re.IGNORECASE), "<user>"),
    ("scrub_guids", "{",
     re.compile(r"\{[0-9a-f]{8}-[0-9a-f]{4}-[0-9a-f]{4}-[0-9a-f]{4}-[0-9a-f]{12}\}",
                re.IGNORECASE), "<guid>"),
    ("scrub_temp_names", "tmp",
     re.compile(r"tmp[0-9a-f]{2,}\.tmp", re.IGNORECASE), "tmp<r>.tmp"),
)

_HIVES = {
    "hkey_local_machine": "hklm",
    "hkey_current_user": "hkcu",
    "hkey_classes_root": "hkcr",
    "hkey_users": "hku",
    "hkey_current_config": "hkcc",
}


def normalize_path(raw: str, config: ExtractionConfig | None = None) -> str:
    """Normalize a filesystem path into a stable attribute value."""
    config = config or ExtractionConfig()
    s = raw.replace("/", "\\").strip()
    fold = config.fold_case
    if fold:
        s = s.lower()
    # On ASCII text re.IGNORECASE folds only ASCII letters, so a step's regex
    # can match only when its literal is in the lower case.  Other text runs
    # every enabled step: there re.IGNORECASE matches "ſ" to "s", "ı" and "İ"
    # to "i" and "K" to "k", which neither lower() nor casefold() shows.  The
    # gates read the lower case from before the scrubs: a replacement holds
    # no later step's literal, and its "<" and ">" edges join none, so a
    # scrub can remove a later literal but never add one, and a stale gate
    # at worst runs a regex that matches nothing.
    low = (s if fold else s.lower()) if s.isascii() else None
    for toggle, literal, pattern, replacement in _SCRUBS:
        if (low is None or literal in low) and getattr(config, toggle):
            s = pattern.sub(replacement, s)
    return s


def _dll_name(raw: str, config: ExtractionConfig) -> str:
    return normalize_path(raw, config).rsplit("\\", 1)[-1]


def _regkey(raw: str, config: ExtractionConfig) -> str:
    head, sep, rest = normalize_path(raw, config).partition("\\")
    return _HIVES.get(head.lower(), head) + sep + rest


# The one definition of each attribute kind read from behavior.summary: its
# token prefix, which is also its ExtractionConfig toggle, the summary fields
# it reads, and the value of one entry (an empty value adds no token).
_KINDS = (
    ("usesDLL", ("dll_loaded",), _dll_name),
    ("regAct",
     ("regkey_opened", "regkey_read", "regkey_written", "regkey_deleted"), _regkey),
    ("fileAct",
     ("file_created", "file_opened", "file_read", "file_written", "file_deleted",
      "file_moved"), normalize_path),
)


def _entry_lists(doc: dict, summary: dict, config: ExtractionConfig,
                 location: str) -> Iterator[tuple]:
    """(kind, value function, raw strings) for each list of entries that
    `config` reads: each enabled kind's summary fields, then, when `static`
    is on, the DLLs of the static PE imports.  A summary field that is not a
    list reads as empty, and so does each entry that is not a non-blank
    string."""
    for kind, summary_fields, value in _KINDS:
        if getattr(config, kind):
            for field_name in summary_fields:
                entries = summary.get(field_name)
                if isinstance(entries, list):
                    yield kind, value, [e for e in entries
                                        if isinstance(e, str) and e.strip()]
    if config.static:
        imports = _section(doc, "static", location).get("pe_imports") or []
        if isinstance(imports, list):
            yield "usesDLL", _dll_name, [imp["dll"] for imp in imports
                                         if isinstance(imp, dict)
                                         and isinstance(imp.get("dll"), str)]


def _section(parent: dict, path: str, location: str) -> dict:
    """The member of `parent` named by the last key of dotted `path`.

    Absent, null or empty members read as {}; any other non-object raises a
    ReportError naming `path`.
    """
    value = parent.get(path.rsplit(".", 1)[-1]) or {}
    if not isinstance(value, dict):
        raise ReportError(f"{path} is not a JSON object", location)
    return value


def parse_report(data, config: ExtractionConfig | None = None,
                 location: str = "", table: dict | None = None) -> Sample:
    """Parse one sandbox report into an unlabeled Sample.

    `data` is the report JSON as bytes or str; `location` (usually the file
    name) prefixes error messages.  `table` holds, per kind, the interned
    token of each raw entry already read under `config` ("" when its value
    is empty); pass one dict to every report of a run with one config, and
    each distinct entry is normalized once.  Raises ReportError for
    malformed or unreadable documents, a section of the wrong JSON type, a
    non-string hash, missing identity, missing behavior section, or an empty
    extraction result.
    """
    config = config or ExtractionConfig()
    table = {} if table is None else table
    if isinstance(data, bytes):
        data = data.decode("utf-8", errors="replace")
    doc = _document(data, location)

    target_file = _section(_section(doc, "target", location), "target.file", location)
    info = _section(doc, "info", location)
    for key in ("sha256", "md5"):
        if target_file.get(key) is not None and not isinstance(target_file[key], str):
            raise ReportError(f"target.file.{key} is not a string", location)
    run_id = info.get("id")
    if run_id is not None and (isinstance(run_id, bool)
                               or not isinstance(run_id, (str, int))):
        raise ReportError("info.id is not a string or an integer", location)
    sample_id = target_file.get("sha256") or target_file.get("md5")
    if not sample_id and run_id is not None:
        sample_id = str(run_id)
    if not sample_id:
        raise ReportError(
            "no sample identity (target.file.sha256/md5 or info.id)", location
        )

    behavior = doc.get("behavior")
    if not isinstance(behavior, dict) or not behavior:
        raise ReportError("missing behavior section; no attributes", location)
    summary = _section(behavior, "behavior.summary", location)

    tokens: set = set()
    for kind, value, entries in _entry_lists(doc, summary, config, location):
        known = table.setdefault(kind, {})
        for entry in entries:
            token = known.get(entry)
            if token is None:
                name = value(entry, config)
                token = known[entry] = sys.intern(kind + ":" + name) if name else ""
            tokens.add(token)
    tokens.discard("")
    if config.proAct:
        processes = behavior.get("processes")
        if isinstance(processes, list) and processes:
            tokens.add("proAct")

    if not tokens:
        raise ReportError("no attributes extracted from behavior", location)
    if config.max_attributes is not None and len(tokens) > config.max_attributes:
        tokens = set(sorted(tokens)[: config.max_attributes])
    return Sample(id=sample_id, attribs=frozenset(tokens), family=None, tasks=None)


def _document(data, location: str) -> dict:
    """The JSON object of a report or config (`core.json_object`), or a
    ReportError naming `location` and why there is none."""
    try:
        return json_object(data)
    except ValueError as e:
        raise ReportError(str(e), location) from e


def load_extraction_config(path) -> ExtractionConfig:
    """Read an ExtractionConfig from its JSON file form; every error in the
    file is a ReportError naming it."""
    with open(path, "rb") as fh:
        obj = _document(fh.read(), str(path))
    try:
        return ExtractionConfig.from_dict(obj)
    except ValueError as e:
        raise ReportError(str(e), str(path)) from e

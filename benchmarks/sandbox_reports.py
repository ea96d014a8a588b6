"""Seeded generator of Cuckoo-style sandbox reports for the `sandbox` workload.

Twelve families share ten tasks.  Each family performs 2-4 tasks and no two
tasks are performed by the same set of families, so a task is predictable
for a family never seen in training (leave-one-family-out F1 is not
trivially 0).  A report draws from three kinds of pools:

  - a system pool every family loads (common DLLs and registry keys);
  - a family pool (DLLs, registry keys, files) that names the family;
  - one bundle per task it performs, shared with every family that has the
    task.

Every path is written with per-run noise that `taskinfer ingest` normalizes
away: a random `C:\\Users\\<name>` profile, braced GUIDs, `tmpXXXX.tmp`
names, random letter case and `/` separators.  Each report also drops a few
files under random names; those tokens are unique to the sample and form the
long, sparse tail of the vocabulary.

MALFORMED_PER_SHAPE reports of each malformed shape are added.  Each one is
ingested in its own call (the resubmission pair shares one call), so a crash
costs only its own operations.  MALFORMED lists the shapes with the outcome a
correct ingester gives them.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path

N_FAMILIES = 12
N_TASKS = 10
# Tasks per family, dealt to the families by the seed.  A fixed multiset keeps
# the number of task bundles, and so the input's size, the same on every seed.
TASKS_PER_FAMILY = (2, 2, 2, 2, 3, 3, 3, 3, 4, 4, 4, 4)
MALFORMED_PER_SHAPE = 2

# Shape -> expected outcome.  "reject": the call reports a typed rejection
# (exit code 1) and writes no record for it.  "once": the call succeeds and
# the shared sha256 appears exactly once in the output.
MALFORMED = {
    "bad_json": "reject",
    "no_identity": "reject",
    "no_behavior": "reject",
    "summary_not_object": "reject",
    "file_not_object": "reject",
    "sha256_not_string": "reject",
    "resubmission": "once",
}

_USERS = ("alice", "Bob", "j.smith", "Administrator", "svc_backup", "MARIA",
          "test", "Analyst01", "kim", "oleg")
_SYSTEM_DLLS = ("kernel32.dll", "ntdll.dll", "user32.dll", "advapi32.dll",
                "ws2_32.dll", "shell32.dll", "ole32.dll", "crypt32.dll",
                "wininet.dll", "gdi32.dll", "comctl32.dll", "msvcrt.dll",
                "shlwapi.dll", "rpcrt4.dll", "secur32.dll", "oleaut32.dll")
_SYSTEM_KEYS = (
    "HKEY_LOCAL_MACHINE\\SOFTWARE\\Microsoft\\Windows NT\\CurrentVersion",
    "HKEY_LOCAL_MACHINE\\SYSTEM\\CurrentControlSet\\Control\\Session Manager",
    "HKEY_CURRENT_USER\\Software\\Microsoft\\Windows\\CurrentVersion\\Explorer",
    "HKEY_LOCAL_MACHINE\\SOFTWARE\\Policies\\Microsoft\\Windows\\Safer",
    "HKEY_CURRENT_USER\\Control Panel\\International",
    "HKEY_LOCAL_MACHINE\\SOFTWARE\\Microsoft\\Cryptography",
)
_REG_FIELDS = ("regkey_opened", "regkey_read", "regkey_written", "regkey_deleted")
_FILE_FIELDS = ("file_created", "file_opened", "file_read", "file_written",
                "file_deleted", "file_moved")
# Unique dropped files per report, the sparse tail of the vocabulary.
TAIL_FILES = (10, 20)
_TAIL_CHARS = "ghjkmnpqrstvwxyz"  # no hex digits: never looks like a GUID or tmp name


@dataclass(frozen=True)
class ReportSet:
    """Report files written for one seed, with the generator's truth."""

    batches: tuple          # tuples of (path, sha256), every report valid
    malformed: tuple        # (shape, (paths...), sha256 or None) per ingest call
    truth: dict             # sha256 -> family, for every valid report
    families: dict          # family -> sorted task list


def _family_tasks(rng: random.Random) -> dict:
    """Family -> task set: 2-4 tasks each, every task's family set distinct."""
    counts = list(TASKS_PER_FAMILY)
    while True:
        rng.shuffle(counts)
        fam_tasks = [frozenset(rng.sample(range(N_TASKS), k)) for k in counts]
        columns = [frozenset(f for f in range(N_FAMILIES) if t in fam_tasks[f])
                   for t in range(N_TASKS)]
        if all(columns) and len(set(columns)) == N_TASKS:
            return {f"fam{f:02d}": sorted(f"task{t}" for t in ts)
                    for f, ts in enumerate(fam_tasks)}


def _pool(owner: str, n_dlls: int, n_keys: int, n_files: int) -> dict:
    dlls = [f"C:\\Users\\{{user}}\\AppData\\Local\\Temp\\{owner}_{i}.dll"
            if i % 2 else f"C:\\Windows\\System32\\{owner}{i}.dll"
            for i in range(n_dlls)]
    keys = []
    for i in range(n_keys):
        if i % 3 == 0:
            keys.append(f"HKEY_CURRENT_USER\\Software\\Microsoft\\Windows\\"
                        f"CurrentVersion\\Run\\{owner}{i}")
        elif i % 3 == 1:
            keys.append(f"HKEY_LOCAL_MACHINE\\SOFTWARE\\Classes\\CLSID\\{{guid}}"
                        f"\\{owner}{i}")
        else:
            keys.append(f"HKEY_LOCAL_MACHINE\\SOFTWARE\\{owner}\\cfg{i}")
    files = []
    for i in range(n_files):
        if i % 3 == 0:
            files.append(f"C:\\Users\\{{user}}\\AppData\\Roaming\\{owner}\\{i}.dat")
        elif i % 3 == 1:
            files.append(f"C:\\ProgramData\\{{guid}}\\{owner}{i}.bin")
        else:
            files.append(f"C:\\Users\\{{user}}\\AppData\\Local\\Temp\\{{tmp}}\\{owner}{i}.log")
    return {"dll": dlls, "reg": keys, "file": files}


def _noisy(rng: random.Random, template: str, user: str) -> str:
    """Fill a path template with per-occurrence noise the ingester removes."""
    s = template.replace("{user}", user)
    while "{guid}" in s:
        h = f"{rng.getrandbits(128):032x}"
        guid = f"{{{h[:8]}-{h[8:12]}-{h[12:16]}-{h[16:20]}-{h[20:]}}}"
        s = s.replace("{guid}", guid.upper() if rng.random() < 0.5 else guid, 1)
    while "{tmp}" in s:
        s = s.replace("{tmp}", f"tmp{rng.getrandbits(16):04X}.tmp", 1)
    case = rng.random()
    if case < 0.25:
        s = s.upper()
    elif case < 0.5:
        s = s.lower()
    if rng.random() < 0.3:
        s = s.replace("\\", "/")
    return s


def _report(rng: random.Random, sha: str, pools: list, draw: float,
            n_tail: int) -> dict:
    user = rng.choice(_USERS)
    summary = {"dll_loaded": [f"C:\\Windows\\System32\\{d}" for d in _SYSTEM_DLLS
                              if rng.random() < 0.5]}
    for key in _SYSTEM_KEYS:
        if rng.random() < 0.5:
            summary.setdefault(rng.choice(_REG_FIELDS), []).append(key)
    for pool in pools:
        for t in pool["dll"]:
            if rng.random() < draw:
                summary["dll_loaded"].append(_noisy(rng, t, user))
        for t in pool["reg"]:
            if rng.random() < draw:
                summary.setdefault(rng.choice(_REG_FIELDS), []).append(_noisy(rng, t, user))
        for t in pool["file"]:
            if rng.random() < draw:
                summary.setdefault(rng.choice(_FILE_FIELDS), []).append(_noisy(rng, t, user))
    for _ in range(n_tail):
        name = "".join(rng.choice(_TAIL_CHARS) for _ in range(10))
        summary.setdefault("file_created", []).append(
            _noisy(rng, f"C:\\Users\\{{user}}\\AppData\\Local\\{name}\\{name[:6]}.exe", user))
    processes = [{"pid": 1000 + rng.randrange(9000), "process_name": "sample.exe"}
                 for _ in range(rng.randint(0, 3))]
    return {
        "info": {"id": rng.randrange(10**6)},
        "target": {"file": {"sha256": sha, "name": "sample.exe"}},
        "behavior": {"summary": summary, "processes": processes},
    }


def _break(shape: str, report: dict) -> str:
    """Serialize `report` in the given malformed shape."""
    if shape == "bad_json":
        text = json.dumps(report)
        return text[: len(text) // 2]
    if shape == "no_identity":
        del report["target"], report["info"]
    elif shape == "no_behavior":
        del report["behavior"]
    elif shape == "summary_not_object":
        report["behavior"]["summary"] = report["behavior"]["summary"]["dll_loaded"]
    elif shape == "file_not_object":
        report["target"]["file"] = "C:\\samples\\sample.exe"
        del report["info"]
    elif shape == "sha256_not_string":
        report["target"]["file"]["sha256"] = 123456789
        del report["info"]
    return json.dumps(report)


def write_reports(out_dir: Path, seed: int, n_reports: int, batch_size: int) -> ReportSet:
    """Write `n_reports` valid reports plus the malformed share under out_dir."""
    rng = random.Random(seed)
    families = _family_tasks(rng)
    fam_pools = {f: _pool(f, 8, 15, 15) for f in families}
    task_pools = {f"task{t}": _pool(f"task{t}", 4, 6, 6) for t in range(N_TASKS)}
    names = sorted(families)
    out_dir.mkdir(parents=True, exist_ok=True)

    def new_report(family, sha=None):
        sha = sha or f"{rng.getrandbits(256):064x}"
        pools = [fam_pools[family]] + [task_pools[t] for t in families[family]]
        return sha, _report(rng, sha, pools, 0.6, rng.randint(*TAIL_FILES))

    truth = {}
    valid = []
    for i in range(n_reports):
        family = names[i % len(names)]
        sha, report = new_report(family)
        path = out_dir / f"r{i:05d}.json"
        path.write_text(json.dumps(report), encoding="utf-8")
        truth[sha] = family
        valid.append((str(path), sha))
    batches = tuple(tuple(valid[i:i + batch_size])
                    for i in range(0, len(valid), batch_size))

    malformed = []
    for shape in MALFORMED:
        for k in range(MALFORMED_PER_SHAPE):
            family = rng.choice(names)
            sha, report = new_report(family)
            stem = out_dir / f"m-{shape}-{k}"
            if shape == "resubmission":
                _, again = new_report(family, sha)
                first, second = Path(f"{stem}a.json"), Path(f"{stem}b.json")
                first.write_text(json.dumps(report), encoding="utf-8")
                second.write_text(json.dumps(again), encoding="utf-8")
                malformed.append((shape, (str(first), str(second)), sha))
                continue
            path = Path(f"{stem}.json")
            path.write_text(_break(shape, report), encoding="utf-8")
            malformed.append((shape, (str(path),), None))
    return ReportSet(batches=batches, malformed=tuple(malformed), truth=truth,
                     families=families)

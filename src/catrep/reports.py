"""Report assembly and serialization: versioned JSON and aligned text.

Every numeric block carries its validity horizon; JSON output is produced
with sorted keys so fixed inputs give byte-identical bytes.
"""

from __future__ import annotations

import json


JSON_VERSION = 1


def make_report(command: str, config: dict, items: list) -> dict:
    return {
        "version": JSON_VERSION,
        "command": command,
        "config": config,
        "items": items,
    }


def dims_item(name: str, dims, valid_to: int, **extra) -> dict:
    item = {"type": "dims", "name": name, "dims": list(dims), "valid_to": valid_to}
    item.update(extra)
    return item


def value_item(name: str, value, valid_to=None, **extra) -> dict:
    item = {"type": "value", "name": name, "value": value}
    if valid_to is not None:
        item["valid_to"] = valid_to
    item.update(extra)
    return item


def check_item(name: str, status: str, detail: str = "", **extra) -> dict:
    item = {"type": "check", "name": name, "status": status, "detail": detail}
    item.update(extra)
    return item


def overall_status(statuses) -> str:
    """The status rule: any violation, else any inconclusive check, else pass."""
    statuses = set(statuses)
    return next((s for s in ("violation", "inconclusive") if s in statuses), "pass")


def to_json(report: dict) -> str:
    doc = {k: v for k, v in report.items() if k not in ("command", "config") or v}
    return json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"


def to_text(report: dict) -> str:
    lines = [f"# {report['command']}"]
    cfg = report.get("config", {})
    if cfg:
        lines.append("  " + "  ".join(f"{k}={v}" for k, v in sorted(cfg.items())))
    width = max((len(str(item.get("name", ""))) for item in report["items"]), default=0)
    for item in report["items"]:
        name = str(item.get("name", "")).ljust(width)
        if item["type"] == "check":
            detail = f"  {item['detail']}" if item.get("detail") else ""
            lines.append(f"{name}  [{item['status'].upper()}]{detail}")
            continue
        body = f"dims={item['dims']}" if item["type"] == "dims" else str(item["value"])
        # every other key (hd of H_i, the note on reg) follows the body as key=value
        extras = "".join(f"  {k}={v}" for k, v in sorted(item.items())
                         if k not in ("type", "name", "dims", "value", "valid_to"))
        suffix = f"  (valid to degree {item['valid_to']})" if "valid_to" in item else ""
        lines.append(f"{name}  {body}{extras}{suffix}")
    return "\n".join(lines) + "\n"


def emit(report: dict, fmt: str) -> str:
    if fmt == "json":
        return to_json(report)
    if fmt == "text":
        return to_text(report)
    raise ValueError(f"unknown format {fmt!r}")

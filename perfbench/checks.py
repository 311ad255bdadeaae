"""Output checks for one CLI invocation.

``check`` returns ``None`` when the invocation kept the output contract and
its report holds every invariant, else a one-line reason.  A reason counts
the invocation as failed (``failed_frac``).
"""

from __future__ import annotations

import hashlib
import json


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def check(command: str, malformed: bool, code: int, stdout: bytes,
          stderr: bytes, golden: str | None = None) -> str | None:
    """Check one invocation.

    ``malformed`` configs must exit 2 with a JSON object on stderr and
    nothing on stdout.  Every other invocation must exit 0 with a JSON
    document on stdout whose sha256 equals ``golden`` when one is given
    (the report bytes recorded at the seed commit for the default seed),
    and whose results hold the invariants below.
    """
    if malformed:
        if code != 2:
            return f"malformed config exited {code}, expected 2"
        if stdout:
            return "malformed config wrote to stdout"
        try:
            payload = json.loads(stderr)
        except ValueError:
            return "stderr is not JSON"
        return None if isinstance(payload, dict) else "stderr is not a JSON object"
    if code != 0:
        return f"exit {code}: {stderr.decode('utf-8', 'replace').strip()[-200:]}"
    if golden is not None and sha256(stdout) != golden:
        return "report bytes differ from the seed commit"
    try:
        doc = json.loads(stdout)
    except ValueError:
        return "stdout is not JSON"
    if command == "validate":
        return None if doc.get("ok") is True else "validate did not report ok"
    return invariant_failure(doc.get("results", {}),
                             doc.get("config", {}).get("analyses", []))


def invariant_failure(results: dict, analyses) -> str | None:
    """The first broken report invariant, or ``None``."""
    missing = [a for a in analyses if a not in results]
    if missing:
        return f"analyses missing from the report: {missing}"
    chain = results.get("chain")
    if chain is not None:
        if chain["chain_holds"] is not True:
            return "chain does not hold"
        if chain["equality_asserted"] and chain["equality_holds"] is not True:
            return "asserted equality does not hold"
    gromov = results.get("gromov")
    if gromov is not None and gromov["certificates_verified"] is not True:
        return "Gromov certificates not verified"
    bounds = results.get("bounds")
    if bounds is not None and bounds["violations"] != 0:
        return f"{bounds['violations']} intersection-bound violations"
    graph = results.get("graph-class")
    if graph is not None:
        table = results.get("delta-table")
        for entry in graph["per_m"]:
            if entry["segre_matches"] is False:
                return f"Segre degree mismatch at m = {entry['m']}"
            if table is not None:
                column = [row[entry["m"] - 1] for row in table["rows"]]
                if entry["coefficients"] != column[::-1]:
                    return (f"graph-class coefficients at m = {entry['m']}"
                            " differ from the reversed delta-table column")
    return None

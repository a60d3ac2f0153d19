"""The SARIF 2.1.0 envelope shared by the lint and audit renderers.

Both render a rule catalogue and results into one ``runs[]`` entry whose
``tool.driver`` names the tool; only the rules and results differ.
"""

from __future__ import annotations

from typing import Any, Dict, List

SARIF_VERSION = "2.1.0"
SARIF_SCHEMA = "https://json.schemastore.org/sarif-2.1.0.json"


def sarif_log(
    tool: str,
    information_uri: str,
    rules: List[Dict[str, Any]],
    results: List[Dict[str, Any]],
) -> Dict[str, Any]:
    """A SARIF log with one run of *tool* at the package version."""
    from .. import __version__

    return {
        "$schema": SARIF_SCHEMA,
        "version": SARIF_VERSION,
        "runs": [
            {
                "tool": {
                    "driver": {
                        "name": tool,
                        "version": __version__,
                        "informationUri": information_uri,
                        "rules": rules,
                    }
                },
                "results": results,
            }
        ],
    }

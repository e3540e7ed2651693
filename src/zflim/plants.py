"""Bundled benchmark plants and the plant file format.

Plant files are JSON documents with fields `name`, `num` and `den`, the
coefficient arrays written in descending powers of z exactly as printed in
the sources they come from.  Internally everything is ascending, so the
arrays are reversed on parse and on emit.
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass

from .lti_core import TransferFunction


@dataclass(frozen=True)
class PlantRecord:
    """Named plant with its published descending-power coefficients."""

    name: str
    num: tuple
    den: tuple

    def tf(self) -> TransferFunction:
        return TransferFunction(list(reversed(self.num)), list(reversed(self.den)))

    def to_json_dict(self) -> dict:
        return {"name": self.name, "num": list(self.num), "den": list(self.den)}


BUILTIN = {
    "ex1": PlantRecord("ex1", (0.1, 0.0), (1.0, -1.8, 0.81)),
    "ex2": PlantRecord(
        "ex2",
        (1.0, -1.5, 0.5, -0.5, 0.5),
        (4.4, -8.957, 9.893, -5.671, 2.207, -0.5),
    ),
    "ex3": PlantRecord(
        "ex3",
        (1.0, -1.95, 0.9, 0.05),
        (1.0, -2.8, 3.5, -2.412, 0.7209),
    ),
    "ex4": PlantRecord(
        "ex4",
        (-2.265, -2.428, -0.2606, 0.253, 0.04455),
        (1.0, 2.465, 2.201, 0.8429, 0.1188, 0.0006787),
    ),
    "ex5": PlantRecord(
        "ex5",
        (-2.225, 3.239, -1.708, 0.517, -0.1603, 0.03239),
        (1.0, -1.825, 1.927, -1.226, 0.1525, 0.1836, -0.05546),
    ),
    "ex6": PlantRecord("ex6", (-0.08658, 0.007162), (1.0, 1.415, 0.5523)),
}


def parse_plant(text: str) -> PlantRecord:
    data = json.loads(text)
    if not isinstance(data, dict):
        raise ValueError("plant file must be a JSON object")
    for key in ("name", "num", "den"):
        if key not in data:
            raise ValueError(f"plant file missing field {key!r}")
    for key in ("num", "den"):
        coeffs = data[key]
        # abs(x) <= the largest float also refuses NaN and integers no float holds; no bool
        if not (isinstance(coeffs, list) and coeffs and all(
                type(x) in (int, float) and abs(x) <= sys.float_info.max for x in coeffs)):
            raise ValueError(f"plant field {key!r} must be a non-empty list of finite numbers")
    num = tuple(float(x) for x in data["num"])
    den = tuple(float(x) for x in data["den"])
    return PlantRecord(str(data["name"]), num, den)


def load_plant(path: str) -> PlantRecord:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_plant(fh.read())


def dump_plant(record: PlantRecord) -> str:
    return json.dumps(record.to_json_dict(), indent=2)

"""Parsers for TNTP-format network and trips files.

The Transportation Network Test Problems plain-text format: a metadata header
of `<TAG> value` lines ending at `<END OF METADATA>`, then whitespace-
separated records.  Network records carry
(init node, term node, capacity, length, free flow time, B, power, speed,
toll, type); trips files group `dest : flow;` entries under `Origin n`
headers.  Files in the wild vary in spacing and trailing columns, so parsing
is deliberately tolerant: `~` comment lines, blank lines and extra columns
are ignored.

By convention the dataset's free-flow times are minutes and capacities
vehicles per hour; `parse_net` converts both to the library's internal
seconds / vehicles-per-second.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from importlib import resources
from typing import Optional

from .roadnet import DelayFunction, Edge, RoadNetwork

MINUTES_TO_SECONDS = 60.0
HOURS_TO_SECONDS = 3600.0

#: Calibration of the dataset's steady-state demand table to vehicles/hour.
#: The Sioux Falls table totals 360,600 trips; one sixth of that, 60,100
#: vehicles/hour, is the baseline arrival rate the simulator targets.
DEFAULT_DEMAND_SCALE = 1.0 / 6.0


class ParseError(ValueError):
    """Malformed TNTP content; carries the 1-based line number."""

    def __init__(self, message: str, line: Optional[int] = None):
        self.line = line
        super().__init__(f"line {line}: {message}" if line else message)


class MetadataMismatch(ParseError):
    """Declared node/link counts disagree with the records found."""


@dataclass
class OdDemand:
    """Origin-destination demand rates, in the source table's units."""

    rates: dict = field(default_factory=dict)  # (origin, destination) -> rate

    def total(self) -> float:
        return sum(self.rates.values())

    def nonzero_items(self) -> list:
        return [((o, d), r) for (o, d), r in sorted(self.rates.items()) if r > 0]


def _read_metadata(lines) -> tuple[dict, int]:
    """Consume `<TAG> value` lines; returns (metadata, next line index)."""
    meta = {}
    i = 0
    for i, raw in enumerate(lines):
        line = raw.strip()
        if not line or line.startswith("~"):
            continue
        if line.startswith("<"):
            tag, _, rest = line[1:].partition(">")
            if tag.strip().upper() == "END OF METADATA":
                return meta, i + 1
            meta[tag.strip().upper()] = rest.strip()
        else:
            # no metadata block at all
            return meta, 0
    return meta, i + 1


def parse_net(text: str) -> RoadNetwork:
    """Build a RoadNetwork from `_net.tntp` content.

    Free-flow times (minutes) become seconds and capacities (vehicles/hour)
    become vehicles/second.  Every malformed input raises ParseError: a bad
    header count, a record DelayFunction rejects, and a self-loop or unknown
    node RoadNetwork rejects.
    """
    lines = text.splitlines()
    meta, start = _read_metadata(lines)
    try:
        declared_nodes = int(meta["NUMBER OF NODES"]) if "NUMBER OF NODES" in meta else None
        declared_links = int(meta["NUMBER OF LINKS"]) if "NUMBER OF LINKS" in meta else None
    except ValueError as exc:
        raise ParseError(f"bad metadata count ({exc})") from None

    edges = []
    max_node = 0
    for lineno in range(start, len(lines)):
        line = lines[lineno].strip()
        if not line or line.startswith("~") or line.startswith("<"):
            continue
        fields = line.rstrip(";").split()
        if len(fields) < 7:
            raise ParseError(
                f"link record needs at least 7 fields, got {len(fields)}: {line!r}",
                lineno + 1,
            )
        try:
            tail, head = int(fields[0]), int(fields[1])
            capacity = float(fields[2]) / HOURS_TO_SECONDS
            float(fields[3])  # the length column is unused, but must be a number
            delay = DelayFunction(
                t0=float(fields[4]) * MINUTES_TO_SECONDS, capacity=capacity,
                alpha=float(fields[5]), beta=float(fields[6]),
            )
        except ValueError as exc:
            raise ParseError(f"bad link record ({exc}): {line!r}", lineno + 1) from None
        edges.append(Edge(id=len(edges), tail=tail, head=head, delay=delay))
        max_node = max(max_node, tail, head)

    n_nodes = declared_nodes if declared_nodes is not None else max_node
    if declared_nodes is not None and max_node > declared_nodes:
        raise MetadataMismatch(
            f"records reference node {max_node} but header declares {declared_nodes}"
        )
    if declared_links is not None and len(edges) != declared_links:
        raise MetadataMismatch(
            f"header declares {declared_links} links, found {len(edges)}"
        )
    try:
        return RoadNetwork(range(1, n_nodes + 1), edges)
    except ValueError as exc:
        raise ParseError(str(exc)) from None


def parse_trips(text: str) -> OdDemand:
    """Build OdDemand from `_trips.tntp` content (rates kept in file units).

    An (origin, destination) pair may appear once; a repeat raises
    ParseError with its line number.
    """
    lines = text.splitlines()
    _, start = _read_metadata(lines)
    rates: dict = {}
    origin = None
    for lineno in range(start, len(lines)):
        line = lines[lineno].strip()
        if not line or line.startswith("~") or line.startswith("<"):
            continue
        if line.lower().startswith("origin"):
            parts = line.split()
            if len(parts) < 2:
                raise ParseError(f"origin header missing node id: {line!r}", lineno + 1)
            try:
                origin = int(parts[1])
            except ValueError:
                raise ParseError(f"bad origin id: {line!r}", lineno + 1) from None
            continue
        if origin is None:
            raise ParseError(f"demand entry before any Origin header: {line!r}", lineno + 1)
        for chunk in line.split(";"):
            chunk = chunk.strip()
            if not chunk:
                continue
            dest_s, sep, rate_s = chunk.partition(":")
            if not sep:
                raise ParseError(f"expected 'dest : rate;', got {chunk!r}", lineno + 1)
            try:
                dest = int(dest_s.strip())
                rate = float(rate_s.strip())
            except ValueError as exc:
                raise ParseError(f"bad demand entry ({exc}): {chunk!r}", lineno + 1) from None
            if not 0 <= rate < math.inf:
                raise ParseError(f"demand rate must be nonnegative and finite: {chunk!r}",
                                 lineno + 1)
            pair = (origin, dest)
            if pair in rates:
                # keeping either rate would drop the other's demand silently
                raise ParseError(f"repeated demand entry for origin {origin}, "
                                 f"destination {dest}: {chunk!r}", lineno + 1)
            rates[pair] = rate
    return OdDemand(rates)


def parse_net_file(path) -> RoadNetwork:
    with open(path, "r") as f:
        return parse_net(f.read())


def parse_trips_file(path) -> OdDemand:
    with open(path, "r") as f:
        return parse_trips(f.read())


def load_sioux_falls() -> tuple[RoadNetwork, OdDemand]:
    """The bundled Sioux Falls benchmark: 24 nodes, 76 edges, 528 OD pairs."""
    pkg = resources.files("privroute.data")
    net = parse_net((pkg / "siouxfalls_net.tntp").read_text())
    od = parse_trips((pkg / "siouxfalls_trips.tntp").read_text())
    return net, od

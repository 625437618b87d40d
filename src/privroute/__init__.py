"""privroute: decentralized, privacy-preserving traffic-count estimation.

Vehicles jointly compute Laplace-noised per-road vehicle counts through
secret sharing, so a routing service can estimate travel times without any
party revealing its location; the simulator quantifies what that privacy
costs on a real benchmark network.
"""

from .field import PrimeModulus
from .laplace import InverseCdfPoly, LaplaceParams, fit_inverse_cdf_poly
from .protocol import PartyInput, ProtocolTranscript, RoundResult, coalition_view, run_round
from .roadnet import (
    DelayFunction,
    Edge,
    RoadNetwork,
    check_accuracy_condition,
    count_to_time,
    delta_capacity,
    delta_critical_count,
    flow_to_count,
    travel_time,
    verify_accuracy_guarantee,
)
from .sim import Metrics, SimConfig, Simulation, run_experiment, shortest_path
from .tntp import OdDemand, load_sioux_falls, parse_net, parse_trips

__version__ = "0.1.0"

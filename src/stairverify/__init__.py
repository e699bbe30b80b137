"""Verification toolkit for networks with staircase and piecewise-linear activations."""

from .bounds import deeppoly_bounds, interval_bounds
from .errors import StairVerifyError
from .formulations import VerificationQuery, build_query_model
from .network import BoxDomain, Layer, Network, Neuron, load_network, save_network
from .pwl import PiecewiseLinear, decompose_staircase, dorefa, relu
from .separation import Cut, retrieve_cut, separate_pwl, separate_staircase
from .verifier import VerifyConfig, VerifyReport, verify

__version__ = "0.1.0"

__all__ = [
    "BoxDomain", "Cut", "Layer", "Network", "Neuron", "PiecewiseLinear",
    "StairVerifyError", "VerificationQuery", "VerifyConfig", "VerifyReport",
    "build_query_model", "decompose_staircase",
    "deeppoly_bounds", "dorefa", "interval_bounds", "load_network",
    "relu", "retrieve_cut", "save_network", "separate_pwl", "separate_staircase",
    "verify",
]

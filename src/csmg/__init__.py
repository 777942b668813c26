"""Streaming simulator and analysis toolkit for certifying the
entanglement length of a photonic linear-cluster source.

Pipeline: ``simulate`` emits a click record, ``scan`` mines it for
basis-pattern matches whose outcome products estimate stabilizer
correlators, and the analysis layer turns those estimates into certified
entanglement bounds, fitted error rates, and an extrapolated
entanglement length.
"""
from .analysis import (ErrorModelFit, LEBoundRow, LEBoundTable,
                       TwoQubitMoments, XiEstimate, concurrence,
                       direct_bounds, eof_from_concurrence,
                       fit_error_model, instance_probability,
                       max_direct_length, naive_tomography_K,
                       predict_gamma, predicted_template_mean,
                       rho_tilde_eigenvalues, splitter_settings, xi_e,
                       xi_from_rates)
from .config import ConfigError, RunConfig, parse_config, read_config
from .pauli import FrameError, PauliLetter, PauliString, StabilizerFrame
from .recordio import (ClickRecord, RecordFile, RecordFormatError,
                       encode_event, event_basis, event_outcome, open_record,
                       write_record)
from .stream import ExperimentConfig, simulate
from .templates import (FAMILIES, CorrelatorEstimate, Template,
                        TemplateVerificationError, certifiable_lengths,
                        make_template, scan, template_k_product,
                        verify_template, verify_template_algebra,
                        verify_template_stream)

__version__ = "0.1.0"

__all__ = [
    "ClickRecord", "ConfigError", "CorrelatorEstimate",
    "ErrorModelFit", "ExperimentConfig", "FrameError", "LEBoundRow",
    "LEBoundTable", "PauliLetter", "PauliString", "RecordFile",
    "RecordFormatError", "RunConfig", "StabilizerFrame", "Template",
    "FAMILIES",
    "TemplateVerificationError", "TwoQubitMoments", "XiEstimate",
    "certifiable_lengths", "concurrence",
    "direct_bounds", "encode_event", "eof_from_concurrence",
    "event_basis", "event_outcome", "fit_error_model",
    "instance_probability", "make_template",
    "max_direct_length", "naive_tomography_K", "open_record",
    "parse_config",
    "predict_gamma", "predicted_template_mean", "read_config",
    "rho_tilde_eigenvalues", "scan", "simulate",
    "splitter_settings", "template_k_product", "verify_template",
    "verify_template_algebra", "verify_template_stream",
    "write_record", "xi_e", "xi_from_rates",
]

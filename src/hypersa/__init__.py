"""Simulator and exhaustive verifier for complete hyperentangled Bell and
GHZ state analysis in polarization and spatial-mode degrees of freedom,
using weak cross-Kerr parity QNDs with homodyne probe readout and a
linear-optical sign decoder."""

from .kerr import (HomodyneModel, HomodyneResult, JointState, ProbeRegister,
                   attach_probes, gaussian_error_prob, homodyne_measure,
                   magnitude_distribution, parity_gadget)
from .optics import (DetectorOutcome, PhotonRecord, apply_bs, apply_wp,
                     detection_distribution, outcome_json, outcome_tokens,
                     sample_outcome)
from .protocols import (DetectionRow, NoiseStats, ProbeReadout, RunConfig,
                        SignatureRow, StateCheck, Transcript,
                        VerificationReport, decode_signs, display_bits,
                        emit_detection_table, emit_signature_table,
                        hgsa_n_analyze, monte_carlo_misclassification,
                        predicted_error_rate, probe_ids, sign_basis_transform,
                        stream, verify_complete, wilson_interval)
from .states import (BasisKet, HyperLabel, PhotonState, all_canonical_labels,
                     apply_gate, bell_state, canonical_bit_strings,
                     complement, equal_up_to_global_phase, ghz_state,
                     hyper_product, parse_state_literal, state_from_label)

__version__ = "0.1.0"

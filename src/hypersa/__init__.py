"""Simulator and exhaustive verifier for complete hyperentangled Bell and
GHZ state analysis in polarization and spatial-mode degrees of freedom,
using weak cross-Kerr parity QNDs with homodyne probe readout and a
linear-optical sign decoder.

Every name below is imported from its module on first use (PEP 562), so
``import hypersa.cli`` loads only what a subcommand runs."""

import sys

__version__ = "0.1.0"

#: Public names by home module.
_EXPORTS = {
    "kerr": "JointState ProbeReadout attach_probes "
            "gaussian_error_prob homodyne_measure magnitude_distribution parity_gadget",
    "optics": "DetectorOutcome PhotonRecord detection_distribution outcome_json "
              "outcome_tokens sample_outcome",
    "protocols": "HomodyneModel RunConfig Transcript decode_signs hgsa_n_analyze "
                 "probe_ids sign_basis_transform",
    "rng": "stream",
    "verifier": "StateCheck VerificationReport verify_complete",
    "noise": "NoiseStats monte_carlo_misclassification predicted_error_rate "
             "wilson_interval",
    "tables": "DetectionRow SignatureRow display_bits emit_detection_table "
              "emit_signature_table",
    "states": "BasisKet HyperLabel PhotonState all_canonical_labels apply_gate "
              "bell_state canonical_bit_strings complement equal_up_to_global_phase "
              "ghz_state hyper_product parse_state_literal state_from_label",
}

__all__ = [name for names in _EXPORTS.values() for name in names.split()]


def _lazy_attributes(namespace: dict, homes: dict[str, str]):
    """PEP 562 ``__getattr__`` and ``__dir__`` for the module whose globals
    are ``namespace``: ``name`` resolves to ``homes[name]``'s attribute of
    that name, or to the submodule itself if it names one, imported on the
    first lookup and then kept in ``namespace``."""

    def __getattr__(name: str):
        if name not in homes:
            raise AttributeError(f"module {namespace['__name__']!r} has no "
                                 f"attribute {name!r}")
        home = f"{__name__}.{homes[name]}"
        __import__(home)  # not importlib, which 3.12+ does not load at start-up
        module = sys.modules[home]
        value = namespace[name] = module if name == homes[name] else getattr(module, name)
        return value

    def __dir__() -> list[str]:
        return sorted(namespace.keys() | homes.keys())

    return __getattr__, __dir__


__getattr__, __dir__ = _lazy_attributes(globals(), {
    **{name: module for module, names in _EXPORTS.items() for name in names.split()},
    **{module: module for module in ("cli", "kerr", "noise", "optics", "protocols",
                                     "rng", "states", "tables", "verifier")}})

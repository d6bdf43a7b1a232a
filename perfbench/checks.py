"""Output checks. Each returns a list of problems; an empty list means correct.

The checks compare against independent computations (the numpy reference
encoder, hashlib, the benchmark's own resolution rule) or against
properties the method must have, never against saved program output.
"""

import hashlib
import math
from pathlib import Path

import numpy as np

LN2 = math.log(2.0)
LOGIT_TOL = 1e-9
COPY_TASK = "copy-first-label"
# every mode reached dev accuracy 1.0 after 8 steps on each of 30 seeds tried,
# with the losses after the first averaging at least 0.0075 below ln 2; after
# 2 or 4 steps some runs still predicted one class, and a 2-step full
# fine-tuning run's second loss landed above ln 2
COPY_ACCURACY_FLOOR = 0.9
COPY_ACCURACY_STEPS = 8


def check_training(label, mode, losses, steps, base_before, base_after,
                   adapter_before=None, adapter_after=None, dev_accuracy=None):
    """One run_training call.

    The head starts at zero, so the first loss is exactly ln 2. A call that
    was evaluated (``dev_accuracy`` given: copy-first-label, at least
    COPY_ACCURACY_STEPS steps) must also have learned: its losses after the
    first average below ln 2 (single batches can still land above it) and
    its dev accuracy clears the floor. Shorter calls and the other two tasks
    do not learn reliably, so their later losses are not checked.
    """
    problems = []
    if len(losses) != steps:
        problems.append(f"{label}: {len(losses)} losses for {steps} steps")
    if not losses or abs(losses[0] - LN2) > 1e-12:
        problems.append(f"{label}: first loss {losses[:1]} is not ln 2")
    if mode == "adapter_only":
        if base_after != base_before:
            problems.append(f"{label}: frozen backbone digest moved")
        if adapter_after == adapter_before:
            problems.append(f"{label}: adapter digest did not change")
    elif base_after == base_before:
        problems.append(f"{label}: full fine-tuning left the backbone unchanged")
    if dev_accuracy is not None:
        later = losses[1:]
        if not later or not sum(later) / len(later) < LN2:
            problems.append(f"{label}: losses after the first do not average below ln 2")
        if dev_accuracy < COPY_ACCURACY_FLOOR:
            problems.append(f"{label}: dev accuracy {dev_accuracy} below {COPY_ACCURACY_FLOOR}")
    return problems


def check_logits(label, program, reference):
    """Program logits equal the reference encoder's within LOGIT_TOL."""
    program, reference = np.asarray(program), np.asarray(reference)
    if program.shape != reference.shape:
        return [f"{label}: logits shape {program.shape}, reference {reference.shape}"]
    err = float(np.max(np.abs(program - reference))) if program.size else 0.0
    return [f"{label}: logits differ from the reference by {err:.3g}"] if not err <= LOGIT_TOL else []


def check_labels(label, predicted, reference):
    """Each predicted label is the reference argmax, unless the top two logits tie within LOGIT_TOL."""
    problems = []
    if len(predicted) != len(reference):
        return [f"{label}: {len(predicted)} labels for {len(reference)} sequences"]
    for i, (got, ref) in enumerate(zip(predicted, reference)):
        ref = np.asarray(ref)
        if ref[got] < ref.max() - LOGIT_TOL:
            problems.append(f"{label}: sequence {i} labelled {got}, reference argmax {int(ref.argmax())}")
    return problems


def check_saved_digest(label, digest, path):
    actual = hashlib.sha256(Path(path).read_bytes()).hexdigest()
    return [] if digest == actual else [f"{label}: save returned {digest[:12]}, file is {actual[:12]}"]


def check_loaded_package(label, pkg, source, params):
    """Loaded tensors are the float32 cast of their source; the payload is 4 bytes per parameter."""
    problems = []
    if pkg.adapter_param_count != params or pkg.adapter_blob_bytes != 4 * params:
        problems.append(f"{label}: {pkg.adapter_param_count} params in {pkg.adapter_blob_bytes} bytes, "
                        f"expected {params} in {4 * params}")
    if set(pkg.tensors) != set(source):
        return problems + [f"{label}: tensor names differ from the source"]
    for name, arr in source.items():
        if not np.array_equal(pkg.tensors[name], arr.astype(np.float32).astype(np.float64)):
            problems.append(f"{label}: tensor {name} is not the float32 cast of its source")
    return problems


def check_index(label, text, canonical):
    return [] if text == canonical else [f"{label}: index bytes depend on card order"]


def expected_resolution(cards, query, model_config_hash):
    """The benchmark's own rule: case-insensitive substring of the id among
    cards for this backbone; a unique exact id wins; otherwise several
    matches are ambiguous."""
    needle = query.strip().lower()
    matches = sorted(c["adapter_id"] for c in cards
                     if c["model_config_hash"] == model_config_hash and needle in c["adapter_id"].lower())
    exact = [m for m in matches if m.lower() == needle]
    if not matches:
        return ("missing",)
    if len(exact) == 1:
        return ("entry", exact[0])
    if len(matches) > 1:
        return ("ambiguous", tuple(matches))
    return ("entry", matches[0])


def check_resolution(label, outcome, expected):
    return [] if outcome == expected else [f"{label}: resolved to {outcome}, rule gives {expected}"]


def check_install(label, downloaded, cold, digest, expected_digest):
    problems = []
    if downloaded != cold:
        problems.append(f"{label}: {'cold' if cold else 'warm'} install reported downloaded={downloaded}")
    if digest != expected_digest:
        problems.append(f"{label}: installed adapter differs from the published one")
    return problems

"""Output checks for every benchmark op.

Each check returns a list of error strings; an empty list means the
output passed. The checks test properties that follow from the scene
that produced a recording, never stored digests, so a legitimate
reordering of floating-point work still passes.
"""

from __future__ import annotations

import numpy as np

from fmcwhar import synth

# The RD peak may sit this many output bins outside the range/Doppler box
# that the scatterer traverses (bilinear resize and spectral leakage).
RD_PEAK_TOLERANCE_BINS = 1.0


def _resized_coord(u, n_in: int, n_out: int):
    """Input-bin coordinate -> output-pixel coordinate of resize_bilinear."""
    return (np.asarray(u, dtype=np.float64) + 0.5) * n_out / n_in - 0.5


def rd_peak_box(scene: synth.Scene, params, n_out: int):
    """(row_lo, row_hi), (col_lo, col_hi) of the resized RD map that the
    scene's scatterers traverse: range over the scene, Doppler within
    plus or minus the fastest speed."""
    n_chirps = scene.n_chirps(params)
    times = np.arange(n_chirps) * params.chirp_duration_s
    ranges = np.concatenate([sc.range_at(times) for sc in scene.scatterers])
    rows = _resized_coord(np.array([ranges.min(), ranges.max()]) / params.range_bin_m,
                          params.samples_per_chirp, n_out)
    doppler_hz = 2.0 * max(sc.max_speed() for sc in scene.scatterers) / params.wavelength_m
    doppler_step = params.chirp_rate_hz / n_chirps
    cols = _resized_coord(np.array([-doppler_hz, doppler_hz]) / doppler_step + n_chirps // 2,
                          n_chirps, n_out)
    return tuple(rows), tuple(cols)


def check_map_tensor(x, name: str) -> list[str]:
    """A normalized map tensor: one (1, H, W) or (B, 1, H, W) stack in [0, 1]."""
    x = np.asarray(x)
    if x.ndim != 4 or x.shape[1] != 1:
        return [f"{name}: expected a (B, 1, H, W) tensor, got {x.shape}"]
    if not np.all(np.isfinite(x)):
        return [f"{name}: non-finite values"]
    if x.min() < 0.0 or x.max() > 1.0:
        return [f"{name}: values outside [0, 1]: [{x.min()}, {x.max()}]"]
    return []


def check_rd_peak(rd, scene: synth.Scene, params) -> list[str]:
    """The RD map's peak lies within the scene's range/Doppler box."""
    rd = np.asarray(rd)
    (r_lo, r_hi), (c_lo, c_hi) = rd_peak_box(scene, params, rd.shape[0])
    row, col = np.unravel_index(np.argmax(rd), rd.shape)
    tol = RD_PEAK_TOLERANCE_BINS
    if not (r_lo - tol <= row <= r_hi + tol and c_lo - tol <= col <= c_hi + tol):
        return [f"RD peak at ({row}, {col}) outside the box rows "
                f"[{r_lo:.2f}, {r_hi:.2f}], cols [{c_lo:.2f}, {c_hi:.2f}]"]
    return []


def check_maps(tensors, scenes, params) -> list[str]:
    """rt/dt/rd tensors of a batch whose sample i came from scenes[i]."""
    errors = []
    for name, x in zip(("rt", "dt", "rd"), tensors):
        errors += check_map_tensor(x, name)
        if len(x) != len(scenes):
            errors.append(f"{name}: {len(x)} samples for {len(scenes)} scenes")
    if errors:
        return errors
    for rd, scene in zip(tensors[2], scenes):
        errors += check_rd_peak(rd[0], scene, params)
    return errors


def check_dataset(dataset, scenes, labels, params) -> list[str]:
    """A loaded dataset tuple against the scenes and labels it was rendered from."""
    x_rt, x_dt, x_rd, got_labels = dataset
    errors = check_maps((x_rt, x_dt, x_rd), scenes, params)
    if not np.array_equal(got_labels, labels):
        errors.append(f"labels {got_labels.tolist()} != {list(labels)}")
    return errors


def check_logits(logits, num_classes: int) -> list[str]:
    logits = np.asarray(logits)
    if logits.shape != (1, num_classes):
        return [f"logits shape {logits.shape} != (1, {num_classes})"]
    if not np.all(np.isfinite(logits)):
        return ["non-finite logits"]
    return []


def check_codec_twin(binary_logits, ascii_logits) -> list[str]:
    """One recording classified from .datb and from .dat bytes gives identical logits."""
    if not np.array_equal(binary_logits, ascii_logits):
        return ["binary and ASCII encodings of one recording gave different logits"]
    return []


def check_epoch(record, epoch: int) -> list[str]:
    if record.epoch != epoch:
        return [f"epoch index {record.epoch}, expected {epoch}"]
    if not np.isfinite(record.loss) or record.loss < 0:
        return [f"epoch {epoch}: loss {record.loss}"]
    if not 0.0 <= record.accuracy <= 1.0:
        return [f"epoch {epoch}: accuracy {record.accuracy}"]
    return []


def check_loss_fell(losses) -> list[str]:
    """Training made progress: the last epoch's loss is below the first's."""
    if len(losses) >= 2 and not losses[-1] < losses[0]:
        return [f"final epoch loss {losses[-1]} not below first epoch loss {losses[0]}"]
    return []

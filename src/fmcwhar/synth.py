"""Synthetic FMCW echoes from parametric point-scatterer scenes.

The generator is the ground-truth oracle for the spectrogram pipeline:
every scene has closed-form beat and Doppler frequencies, so map peaks
can be predicted exactly.

Conventions:

- Scatterer velocity is the approach rate. Positive velocity means the
  range shrinks (dR/dt = -v) and produces a positive Doppler frequency
  2 v / lambda; receding targets produce negative Doppler.
- Range is sampled once per chirp (stop-and-go): intra-chirp motion is
  negligible at indoor speeds over millisecond chirps.
- Randomness comes from the counter-based Philox generator so runs are
  reproducible across platforms; the algorithm name is recorded in
  serialized scenes.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .radar_io import EchoMatrix, RadarParams, SPEED_OF_LIGHT

RNG_ALGORITHM = "philox4x64"

# Samples per render block of ``generate``: 256 KiB of complex output.
_RENDER_BLOCK_SAMPLES = 1 << 14


class SynthError(ValueError):
    pass


class RangeWentNonpositive(SynthError):
    """A scatterer's range dropped to zero or below during the scene."""


def seeded_rng(seed: int, stream: int = 0) -> np.random.Generator:
    """The project's one seeded generator: Philox keyed by (seed mod 2**64, stream).

    The key is a uint64 array: a list would pass keys of 2**63 and above
    through float64, which rounds them and cannot hold 2**64 - 1.
    """
    key = np.array([seed & 0xFFFFFFFFFFFFFFFF, stream], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


@dataclass(frozen=True)
class Scatterer:
    """Point target with piecewise-constant approach velocity.

    ``velocity_mps`` is either a constant or a list of (start_time_s,
    velocity_mps) segments; each velocity holds from its start time to
    the next segment's start.
    """

    r0_m: float
    velocity_mps: float | tuple[tuple[float, float], ...] = 0.0
    amplitude: float = 1.0

    def segments(self) -> tuple[tuple[float, float], ...]:
        v = self.velocity_mps
        if isinstance(v, (int, float)):
            return ((0.0, float(v)),)
        segs = tuple((float(t), float(vel)) for t, vel in v)
        if not segs or segs[0][0] != 0.0:
            raise SynthError("velocity schedule must start at t = 0")
        starts = [t for t, _ in segs]
        if starts != sorted(starts):
            raise SynthError("velocity schedule must be sorted by start time")
        return segs

    def range_at(self, t) -> np.ndarray:
        """Range in meters at time(s) t; dR/dt = -velocity (approach positive)."""
        t = np.atleast_1d(np.asarray(t, dtype=np.float64))
        segs = self.segments()
        starts = np.array([s for s, _ in segs])
        vels = np.array([v for _, v in segs])
        # Range accumulated up to each segment start.
        seg_durations = np.diff(starts)
        r_at_start = self.r0_m - np.concatenate(([0.0], np.cumsum(vels[:-1] * seg_durations)))
        idx = np.searchsorted(starts, t, side="right") - 1
        return r_at_start[idx] - vels[idx] * (t - starts[idx])

    def max_speed(self) -> float:
        return max(abs(v) for _, v in self.segments())


@dataclass(frozen=True)
class Scene:
    scatterers: tuple[Scatterer, ...]
    duration_s: float
    noise_std: float = 0.0
    seed: int = 0

    def __post_init__(self):
        if self.duration_s <= 0:
            raise SynthError(f"duration must be > 0, got {self.duration_s}")
        if self.noise_std < 0:
            raise SynthError(f"noise_std must be >= 0, got {self.noise_std}")
        object.__setattr__(self, "scatterers", tuple(self.scatterers))

    def n_chirps(self, params: RadarParams) -> int:
        ratio = self.duration_s / params.chirp_duration_s
        n = round(ratio)
        if n < 1 or abs(ratio - n) > 1e-9 * max(1.0, ratio):
            raise SynthError(
                f"duration {self.duration_s}s is not an integer number of "
                f"{params.chirp_duration_s}s chirps"
            )
        return n

    def to_json(self) -> str:
        payload = {
            "rng": RNG_ALGORITHM,
            "duration_s": self.duration_s,
            "noise_std": self.noise_std,
            "seed": self.seed,
            "scatterers": [
                {
                    "r0_m": sc.r0_m,
                    "velocity_mps": sc.velocity_mps
                    if isinstance(sc.velocity_mps, (int, float))
                    else [list(seg) for seg in sc.velocity_mps],
                    "amplitude": sc.amplitude,
                }
                for sc in self.scatterers
            ],
        }
        return json.dumps(payload, indent=2)


def generate(scene: Scene, params: RadarParams) -> EchoMatrix:
    """Render a scene into an echo matrix.

    Each chirp n and sample m receives the sum over scatterers of
    a * exp(j(2 pi f_b t_m - 4 pi R(t_n) / lambda)) with beat frequency
    f_b = 2 k R(t_n) / c. The analytic (complex-exponential) signal keeps
    the Doppler sign recoverable.

    Scatterers render in blocks of whole chirps of about
    ``_RENDER_BLOCK_SAMPLES`` samples, so the phase and exponential
    temporaries stay block-sized. Noise draws every real part, then
    every imaginary part, one block at a time into one reused buffer.
    The echo equals that of a one-piece render byte for byte.
    """
    n_c = scene.n_chirps(params)
    n_s = params.samples_per_chirp
    t_chirp = np.arange(n_c) * params.chirp_duration_s
    t_fast = np.arange(n_s) / params.sample_rate_hz
    rows = max(1, _RENDER_BLOCK_SAMPLES // n_s)
    blocks = [slice(start, start + rows) for start in range(0, n_c, rows)]

    data = np.zeros((n_c, n_s), dtype=np.complex128)
    k_slope = params.chirp_slope_hz_per_s
    lam = params.wavelength_m
    for sc in scene.scatterers:
        r = sc.range_at(t_chirp)
        if np.any(r <= 0):
            raise RangeWentNonpositive(
                f"scatterer starting at {sc.r0_m} m reached R <= 0 during the scene"
            )
        f_beat = 2.0 * k_slope * r / SPEED_OF_LIGHT
        for block in blocks:
            phase = (2.0 * math.pi) * f_beat[block, None] * t_fast[None, :] \
                - (4.0 * math.pi / lam) * r[block, None]
            data[block] += sc.amplitude * np.exp(1j * phase)

    if scene.noise_std > 0:
        rng = seeded_rng(scene.seed)
        draws = np.empty((rows, n_s))
        for part in (data.real, data.imag):
            for block in blocks:
                target = part[block]
                drawn = draws[: len(target)]
                rng.standard_normal(out=drawn)
                drawn *= scene.noise_std
                target += drawn

    return EchoMatrix(params=params, data=data)


class ActivityKind(Enum):
    WALK = "walk"
    SIT = "sit"
    STAND = "stand"
    PICK = "pick"
    DRINK = "drink"
    FALL = "fall"


# Randomization bounds for each stylized activity. Velocities are approach
# rates in m/s, durations in seconds.
_TEMPLATE_DOC = {
    ActivityKind.WALK: "constant speed in [1.0, 1.5], random direction",
    ActivityKind.SIT: "single receding stroke, speed in [0.5, 0.8], 0.7-0.9 s",
    ActivityKind.STAND: "single approaching stroke, speed in [0.5, 0.8], 0.7-0.9 s",
    ActivityKind.PICK: "down-up stroke pair, speed in [0.35, 0.5], 0.35-0.5 s each",
    ActivityKind.DRINK: "slow stroke pair, speed in [0.2, 0.32], 0.6-0.8 s each",
    ActivityKind.FALL: "burst with speed in [2.2, 2.9] for 0.3-0.45 s, then still",
}

TEMPLATE_DURATION_S = 1.92


def activity_template(kind: ActivityKind | str, seed: int) -> Scene:
    """Stylized single-scatterer scene for one activity class.

    The same (kind, seed) pair always yields an identical scene. Bounds
    per class are documented in ``_TEMPLATE_DOC``.
    """
    kind = ActivityKind(kind)
    rng = seeded_rng(seed, stream=list(ActivityKind).index(kind) + 1)
    dur = TEMPLATE_DURATION_S

    if kind is ActivityKind.WALK:
        speed = rng.uniform(1.0, 1.5)
        toward = rng.random() < 0.5
        v = speed if toward else -speed
        # Keep the range positive across the whole crossing.
        r0 = rng.uniform(1.0, 2.5) + (speed * dur if toward else 0.0)
        sched = ((0.0, v),)
    elif kind in (ActivityKind.SIT, ActivityKind.STAND):
        speed = rng.uniform(0.5, 0.8)
        v = -speed if kind is ActivityKind.SIT else speed
        t0 = rng.uniform(0.3, 0.5)
        stroke = rng.uniform(0.7, 0.9)
        r0 = rng.uniform(2.0, 4.0)
        sched = ((0.0, 0.0), (t0, v), (t0 + stroke, 0.0))
    elif kind in (ActivityKind.PICK, ActivityKind.DRINK):
        if kind is ActivityKind.PICK:
            speed = rng.uniform(0.35, 0.5)
            stroke = rng.uniform(0.35, 0.5)
        else:
            speed = rng.uniform(0.2, 0.32)
            stroke = rng.uniform(0.6, 0.8)
        t0 = rng.uniform(0.15, 0.3)
        r0 = rng.uniform(2.0, 4.0)
        sched = ((0.0, 0.0), (t0, -speed), (t0 + stroke, speed), (t0 + 2 * stroke, 0.0))
    elif kind is ActivityKind.FALL:
        speed = rng.uniform(2.2, 2.9)
        burst = rng.uniform(0.3, 0.45)
        t0 = rng.uniform(0.5, 0.8)
        r0 = rng.uniform(1.5, 3.0)
        sched = ((0.0, 0.0), (t0, -speed), (t0 + burst, 0.0))
    else:  # pragma: no cover
        raise SynthError(f"unknown activity {kind}")

    noise = rng.uniform(0.01, 0.03)
    return Scene(
        scatterers=(Scatterer(r0_m=r0, velocity_mps=sched),),
        duration_s=dur,
        noise_std=noise,
        seed=seed,
    )

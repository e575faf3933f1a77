"""FMCW radar spectrogram pipeline with a desk-scale neural reference implementation.

Subpackages and modules:

- ``radar_io``: raw recording parsing and lossless writing (.dat / .datb)
- ``dsp``: Gaussian windows, Butterworth high-pass design, IIR filtering
- ``domain_maps``: Range-Time, Doppler-Time and Range-Doppler spectrograms
- ``synth``: point-scatterer echo synthesis, the oracle for all DSP tests
- ``augment``: power-stratified Gaussian noise injection on spectrograms
- ``nn``: from-scratch network building blocks with exact backward passes
- ``training``: the toy dataset, Adam loop, cross-entropy and metrics
- ``cli``: command-line front door
"""

__version__ = "0.1.0"

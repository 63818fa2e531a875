"""Retinal biometric identification.

Corner/bifurcation detection on fundus intensity maps, polar pulse
templates around the optic-disc centre, and rotation-tolerant circular
correlation matching, plus persistence, an evaluation harness and a CLI.
"""

from .encoder import FeatureTemplate, PolarCorner, classify, encode, gated_template, polarize
from .harris import Corner, HarrisParams, detect_corners
from .imaging import ImageFormatError, RasterImage, load_image, rotate_about, save_image, to_intensity
from .matcher import MatchScore, Weights, identify, sim_profile, si_class, total_si, verify
from .optic_disc import OdCenter, OdParams, locate_od, manual_od
from .store import Gallery, GalleryRecord, load_gallery, save_template

__version__ = "0.1.0"

__all__ = [
    "Corner", "FeatureTemplate", "Gallery", "GalleryRecord", "HarrisParams",
    "ImageFormatError", "MatchScore", "OdCenter", "OdParams", "PolarCorner",
    "RasterImage", "Weights", "classify", "detect_corners", "encode",
    "gated_template", "identify", "load_gallery", "load_image", "locate_od", "manual_od",
    "polarize", "rotate_about", "save_image", "save_template", "si_class",
    "sim_profile", "to_intensity", "total_si", "verify",
]

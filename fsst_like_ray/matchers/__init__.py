from .pattern import LikePattern, parse_like
from .engines import match_decoded, ENGINES

__all__ = ["LikePattern", "parse_like", "match_decoded", "ENGINES"]

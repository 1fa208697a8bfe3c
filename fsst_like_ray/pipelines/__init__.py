from .compress import encode_dataset, decode_dataset

__all__ = ["encode_dataset", "decode_dataset"]

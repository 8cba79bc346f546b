"""Independent oracles the differential tests compare the library against."""

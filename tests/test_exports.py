"""The lazily resolved public names of ``repro`` and ``repro.telemetry``."""

import importlib

import pytest


@pytest.mark.parametrize("package", ["repro", "repro.telemetry"])
def test_every_exported_name_resolves(package):
    module = importlib.import_module(package)
    unresolved = [name for name in module.__all__
                  if getattr(module, name, None) is None]
    assert unresolved == []
    assert set(module.__all__) <= set(dir(module))


@pytest.mark.parametrize("package", ["repro", "repro.telemetry"])
def test_unknown_name_raises_attribute_error(package):
    module = importlib.import_module(package)
    with pytest.raises(AttributeError, match="no_such_name"):
        module.no_such_name

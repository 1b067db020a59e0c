"""Tests for the error hierarchy and public-API hygiene."""

import importlib
import inspect
import pkgutil

import pytest

import repro
from repro import errors


class TestErrorHierarchy:
    def test_all_errors_derive_from_repro_error(self):
        for name in dir(errors):
            obj = getattr(errors, name)
            if inspect.isclass(obj) and issubclass(obj, Exception):
                assert issubclass(obj, errors.ReproError), name

    def test_layer_branches(self):
        assert issubclass(errors.BadPhysicalAddress, errors.HardwareError)
        assert issubclass(errors.SegmentationFault, errors.KernelError)
        assert issubclass(errors.ProtectionError, errors.ViaError)
        assert not issubclass(errors.KernelError, errors.HardwareError)

    def test_via_errors_carry_vip_status(self):
        assert errors.ProtectionError("x").status == \
            "VIP_PROTECTION_ERROR"
        assert errors.NotRegistered("x").status == "VIP_INVALID_MEMORY"
        assert errors.DescriptorError("x").status == \
            "VIP_INVALID_PARAMETER"
        assert errors.QueueEmpty("x").status == "VIP_NOT_DONE"
        assert errors.ViaError("x").status == "VIP_ERROR"
        assert errors.ViaError("x", status="CUSTOM").status == "CUSTOM"

    def test_package_root_exports(self):
        assert repro.__version__
        assert repro.Kernel is not None
        assert repro.Machine is not None   # lazy attribute
        with pytest.raises(AttributeError):
            repro.does_not_exist


class TestDeprecatedAliases:
    def test_connection_error_alias_is_gone(self):
        """The deprecated ``ConnectionError_`` alias is removed, so the
        name no longer resolves."""
        with pytest.raises(AttributeError, match="ConnectionError_"):
            errors.ConnectionError_

    def test_unknown_attribute_still_raises(self):
        with pytest.raises(AttributeError, match="NoSuchError"):
            errors.NoSuchError


def _walk_modules():
    for info in pkgutil.walk_packages(repro.__path__,
                                      prefix="repro."):
        yield importlib.import_module(info.name)


class TestApiHygiene:
    def test_every_module_has_a_docstring(self):
        missing = [m.__name__ for m in _walk_modules()
                   if not (m.__doc__ or "").strip()]
        assert missing == []

    def test_every_public_class_documented(self):
        missing = []
        for module in _walk_modules():
            for name, obj in vars(module).items():
                if (inspect.isclass(obj) and not name.startswith("_")
                        and obj.__module__ == module.__name__
                        and not (obj.__doc__ or "").strip()):
                    missing.append(f"{module.__name__}.{name}")
        assert missing == []

    def test_every_public_function_documented(self):
        missing = []
        for module in _walk_modules():
            for name, obj in vars(module).items():
                if (inspect.isfunction(obj) and not name.startswith("_")
                        and obj.__module__ == module.__name__
                        and not (obj.__doc__ or "").strip()):
                    missing.append(f"{module.__name__}.{name}")
        assert missing == []

    def test_public_methods_documented(self):
        missing = []
        for module in _walk_modules():
            for cname, cls in vars(module).items():
                if not (inspect.isclass(cls)
                        and cls.__module__ == module.__name__):
                    continue
                for mname, meth in vars(cls).items():
                    if not (inspect.isfunction(meth)
                            and not mname.startswith("_")):
                        continue
                    # inspect.getdoc follows the MRO, so an override of
                    # a documented base method (e.g. a LockingBackend
                    # implementation) counts as documented.
                    if not (inspect.getdoc(getattr(cls, mname))
                            or "").strip():
                        missing.append(
                            f"{module.__name__}.{cname}.{mname}")
        assert missing == []

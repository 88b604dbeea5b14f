// OOP support for the taint engine (paper §III.E). The original tool builds
// "full names" for properties and methods by backward-searching the token
// stream over T_OBJECT_OPERATOR / T_DOUBLE_COLON; here the AST gives the
// structure directly. This module keeps the taint state of properties —
// keyed both by access path ("$row->sml_name") and, when the receiver class
// is known, by class ("wpdb::prefix") — and resolves receiver class names
// (self / parent / static, inheritance).
#pragma once

#include <map>
#include <optional>
#include <string>
#include <string_view>

#include "core/taint.h"
#include "php/project.h"

namespace phpsafe {

/// Merged-over-instances taint store for object and static properties.
class PropertyStore {
public:
    /// Class-level slot: "class::prop" (class lowercased).
    TaintValue& class_slot(std::string_view class_name, std::string_view prop);
    const TaintValue* find_class_slot(std::string_view class_name,
                                      std::string_view prop) const;

    /// Static property slot: "Class::$prop".
    TaintValue& static_slot(std::string_view class_name, std::string_view prop);
    const TaintValue* find_static_slot(std::string_view class_name,
                                       std::string_view prop) const;

    void clear();
    size_t size() const noexcept { return slots_.size(); }

private:
    std::map<std::string, TaintValue> slots_;
};

/// Resolves `self` / `parent` / `static` against the enclosing class and
/// returns a lowercase class name; empty when unresolvable.
std::string resolve_class_name(std::string_view name,
                               const php::ClassDecl* current_class,
                               const php::Project& project);

}  // namespace phpsafe

#include "core/oop.h"

#include "util/strings.h"

namespace phpsafe {

TaintValue& PropertyStore::class_slot(std::string_view class_name,
                                      std::string_view prop) {
    return slots_[ascii_lower(class_name) + "::" + std::string(prop)];
}

const TaintValue* PropertyStore::find_class_slot(std::string_view class_name,
                                                 std::string_view prop) const {
    const auto it = slots_.find(ascii_lower(class_name) + "::" + std::string(prop));
    return it == slots_.end() ? nullptr : &it->second;
}

TaintValue& PropertyStore::static_slot(std::string_view class_name,
                                       std::string_view prop) {
    return slots_[ascii_lower(class_name) + "::$" + std::string(prop)];
}

const TaintValue* PropertyStore::find_static_slot(std::string_view class_name,
                                                  std::string_view prop) const {
    const auto it = slots_.find(ascii_lower(class_name) + "::$" + std::string(prop));
    return it == slots_.end() ? nullptr : &it->second;
}

void PropertyStore::clear() { slots_.clear(); }

std::string resolve_class_name(std::string_view name,
                               const php::ClassDecl* current_class,
                               const php::Project& project) {
    if (iequals(name, "self") || iequals(name, "static")) {
        return current_class ? ascii_lower(current_class->name) : std::string();
    }
    if (iequals(name, "parent")) {
        if (!current_class || current_class->parent.empty()) return {};
        return ascii_lower(current_class->parent);
    }
    (void)project;
    return ascii_lower(name);
}

}  // namespace phpsafe

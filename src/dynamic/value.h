// Concrete PHP-ish values for the dynamic validation interpreter
// (src/dynamic/interpreter.h). Implements the loose typing the exploit
// paths rely on: string/number juggling, truthiness, arrays as ordered
// string-keyed maps with reference semantics, objects with identity.
#pragma once

#include <map>
#include <memory>
#include <string>
#include <vector>

namespace phpsafe::dynamic {

class Value;

struct ArrayData {
    // Preserves insertion order (PHP arrays are ordered maps).
    std::vector<std::pair<std::string, Value>> entries;
    long next_index = 0;

    Value* find(const std::string& key);
    const Value* find(const std::string& key) const;
};

struct ObjectData {
    std::string class_name;  ///< lowercased
    std::map<std::string, Value, std::less<>> properties;
    /// Internal cursor for result-set stub objects (mysql result handles).
    size_t cursor = 0;
    /// Set for closure values ("__closure" objects): the AST node to run.
    const void* closure_node = nullptr;
};

class Value {
public:
    enum class Type { kNull, kBool, kInt, kFloat, kString, kArray, kObject };

    Value() = default;
    static Value null() { return Value(); }
    static Value boolean(bool b);
    static Value integer(long v);
    static Value real(double v);
    static Value string(std::string s);
    static Value array();
    static Value object(std::string class_name);

    Type type() const noexcept { return type_; }
    bool is_null() const noexcept { return type_ == Type::kNull; }
    bool is_array() const noexcept { return type_ == Type::kArray; }
    bool is_object() const noexcept { return type_ == Type::kObject; }
    bool is_string() const noexcept { return type_ == Type::kString; }

    /// PHP-style coercions.
    bool to_bool() const;
    long to_int() const;
    double to_float() const;
    /// The operand PHP arithmetic sees: an int, or a float when the value
    /// is one or is a string whose leading number has a fraction or an
    /// exponent ("1.5", "2e3"); anything else converts like to_int().
    Value to_number() const;
    std::string to_string() const&;
    /// Moves a string payload out instead of copying it, so a folded
    /// concatenation chain appends in place rather than copying its
    /// growing prefix once per term.
    std::string to_string() &&;

    /// PHP loose comparison (== semantics, simplified).
    bool loose_equals(const Value& other) const;

    /// Array access (creates the slot on mutation paths).
    Value get_element(const std::string& key) const;
    void set_element(const std::string& key, Value value);
    void push_element(Value value);  ///< $a[] = ...
    size_t array_size() const;

    /// Shared array/object payloads (PHP 5 objects are handles; arrays here
    /// share too, which is fine for the validation workloads).
    std::shared_ptr<ArrayData> array_data() const { return array_; }
    std::shared_ptr<ObjectData> object_data() const { return object_; }

private:
    Type type_ = Type::kNull;
    bool bool_ = false;
    long int_ = 0;
    double float_ = 0;
    std::string string_;
    std::shared_ptr<ArrayData> array_;
    std::shared_ptr<ObjectData> object_;
};

/// True if the string is a PHP "numeric string" (is_numeric semantics).
bool is_numeric_string(const std::string& s);

}  // namespace phpsafe::dynamic
